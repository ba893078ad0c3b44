// Command maps regenerates the tables and figures of MAPS (ISPASS
// 2018). Each subcommand runs one experiment's simulation sweep and
// prints the same rows/series the paper plots.
//
// Usage:
//
//	maps [flags] <experiment> [experiment ...]
//	maps all
//	maps sweep [sweep flags]
//	maps run [run flags]
//
// The sweep verb expands declarative axes (benchmarks, workload
// specs, cache sizes, contents, policies, partitions) into a config
// grid and runs it with bounded parallelism, locally or against a
// mapsd daemon's POST /v1/sweeps endpoint; `maps sweep -h` lists its
// flags. The run verb executes one simulation of a named benchmark,
// a declarative workload spec (docs/WORKLOADS.md), or a recorded
// trace replayed in constant memory — or, with -suite, one per
// registered benchmark — locally or on mapsd; `maps run -h` lists its
// flags.
//
// Experiments: table1 table2 fig1 fig2 fig3 fig4 fig5 fig6 fig7, plus
// the extensions ablate-partial, content-matrix, org-compare, csopt,
// spec-window, and tree-stretch.
//
// Flags:
//
//	-instructions N       simulated instructions per run (default 2000000)
//	-benchmarks a,b       restrict the benchmark set
//	-parallel N           concurrent simulations (default NumCPU)
//	-plot                 append ASCII charts to each experiment's tables
//	-json                 emit machine-readable results (the same structs
//	                      mapsd serializes) instead of rendered tables
//	-v                    verbose structured logs on stderr
//	-log-format text|json log output format (default text)
//
// Experiments named together (including `maps all`) run as one: their
// simulations share one executor, so a benchmark front several of them
// need is simulated once per run group. Each experiment reports its
// host time — its runs' share of the simulation time plus its own
// finish and render steps — and a multi-experiment run ends with a
// timing table of those host times and the run's wall clock; with
// -json the same data is a final {"timing": [...], "wall_sec": ...}
// object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/maps-sim/mapsim/internal/experiments"
	"github.com/maps-sim/mapsim/internal/obs"
)

func main() {
	// The sweep and run verbs have their own flag sets (axes, workload
	// sources, remote daemon, ...): dispatch before the experiment
	// flags ever parse.
	if len(os.Args) > 1 && os.Args[1] == "sweep" {
		os.Exit(runSweepCmd(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "run" {
		os.Exit(runRunCmd(os.Args[2:]))
	}

	instructions := flag.Uint64("instructions", 2_000_000, "simulated instructions per run")
	withPlot := flag.Bool("plot", false, "append ASCII charts to each experiment's tables")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON results instead of tables")
	benchmarks := flag.String("benchmarks", "", "comma-separated benchmark subset")
	parallel := flag.Int("parallel", 0, "concurrent simulations (default NumCPU)")
	logFormat := flag.String("log-format", obs.FormatText, "log output format: text or json")
	verbose := flag.Bool("v", false, "verbose logging (Debug level) on stderr")
	flag.Usage = usage
	flag.Parse()

	if flag.NArg() == 0 {
		usage()
		os.Exit(2)
	}

	logger, err := obs.NewLogger(os.Stderr, *logFormat, *verbose)
	if err != nil {
		fmt.Fprintf(os.Stderr, "maps: %v\n", err)
		os.Exit(2)
	}

	opt := experiments.Options{Instructions: *instructions, Parallelism: *parallel}
	if *benchmarks != "" {
		opt.Benchmarks = strings.Split(*benchmarks, ",")
	}

	names := flag.Args()
	if len(names) == 1 && names[0] == "all" {
		names = experiments.Names()
	}
	logger.Debug("experiments start", "experiments", names)
	start := time.Now()
	reports, err := experiments.RunMany(names, opt, *withPlot)
	if err != nil {
		fmt.Fprintf(os.Stderr, "maps: %v\n", err)
		os.Exit(1)
	}
	wall := time.Since(start)
	for _, rep := range reports {
		logger.Info("experiment done", "experiment", rep.Name, "host", rep.Elapsed)
		if err := emit(rep, *asJSON); err != nil {
			fmt.Fprintf(os.Stderr, "maps: %s: %v\n", rep.Name, err)
			os.Exit(1)
		}
	}
	if len(reports) > 1 {
		if err := emitTiming(reports, wall, *asJSON); err != nil {
			fmt.Fprintf(os.Stderr, "maps: %v\n", err)
			os.Exit(1)
		}
	}
}

// emit prints one experiment's output: indented JSON (its host time
// on stderr, keeping stdout pure) or the rendered tables plus chart.
func emit(rep *experiments.Report, asJSON bool) error {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[%s took %v of host time]\n", rep.Name, rep.Elapsed.Round(time.Millisecond))
		return nil
	}
	fmt.Println(rep.Table)
	if rep.Chart != "" {
		fmt.Println(rep.Chart)
	}
	fmt.Printf("[%s took %v of host time]\n\n", rep.Name, rep.Elapsed.Round(time.Millisecond))
	return nil
}

// emitTiming summarizes a multi-experiment run (`maps all`): each
// experiment's host time and the run's wall clock, as a table on
// stdout or, in -json mode, a final {"timing": [...], "wall_sec": ...}
// object.
func emitTiming(reports []*experiments.Report, wall time.Duration, asJSON bool) error {
	if asJSON {
		type row struct {
			Experiment string  `json:"experiment"`
			ElapsedSec float64 `json:"elapsed_sec"`
		}
		rows := make([]row, len(reports))
		for i, r := range reports {
			rows[i] = row{r.Name, r.Elapsed.Seconds()}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{"timing": rows, "wall_sec": wall.Seconds()})
	}
	fmt.Println("experiment timing")
	fmt.Printf("%-16s %10s\n", "experiment", "host")
	for _, r := range reports {
		fmt.Printf("%-16s %10v\n", r.Name, r.Elapsed.Round(time.Millisecond))
	}
	fmt.Printf("%-16s %10v\n", "total (wall)", wall.Round(time.Millisecond))
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, `maps — regenerate the MAPS (ISPASS 2018) tables and figures

usage: maps [flags] <experiment> [experiment ...]
       maps all
       maps sweep [sweep flags]   (see maps sweep -h)
       maps run [run flags]       (see maps run -h)

experiments:
  table1  simulation configuration
  table2  metadata organization / data protected
  fig1    metadata MPKI vs cache contents and size
  fig2    normalized ED^2 across LLC/metadata-cache budgets
  fig3    reuse-distance CDFs by metadata type
  fig4    bimodal reuse-distance classes
  fig5    reuse CDFs by request type (fft, leslie3d)
  fig6    eviction policies: plru, eva, min, itermin (+lru, srrip)
  fig7    partitioning: none, best-static, avg-static, dynamic

extensions beyond the paper:
  ablate-partial  partial-write mechanism on/off (paper SIV-E)
  content-matrix  all seven content-policy combinations
  org-compare     PoisonIvy split counters vs SGX monolithic
  csopt           CSOPT solve + live replay + state explosion (paper SV-B)
  spec-window     finite speculation windows vs metadata cache size
  tree-stretch    tree reuse distances with vs without a metadata cache

flags:
`)
	flag.PrintDefaults()
}
