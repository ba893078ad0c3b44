package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/maps-sim/mapsim"
	"github.com/maps-sim/mapsim/internal/cliutil"
	"github.com/maps-sim/mapsim/internal/sim"
	wspec "github.com/maps-sim/mapsim/internal/workload/spec"
)

// defaultMetaSize is the metadata-cache capacity `maps run` simulates
// when -ways or -content is given without -meta: the 64 KB cache the
// paper's single-size figures use.
const defaultMetaSize = 64 << 10

// runRunCmd implements the `maps run` verb: one simulation of a named
// benchmark, a declarative workload spec, or a recorded trace, run
// locally or against a mapsd daemon. Returns the process exit code.
func runRunCmd(args []string) int {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	specFile := fs.String("workload-spec", "", "workload-spec file (YAML or JSON); see docs/WORKLOADS.md")
	bench := fs.String("bench", "", "named benchmark to run")
	traceFile := fs.String("trace", "", "recorded workload trace to replay (see mapstrace record-workload)")
	instructions := fs.Uint64("instructions", 2_000_000, "simulated instructions")
	seed := fs.Int64("seed", 0, "workload seed")
	secure := fs.Bool("secure", true, "enable secure memory (counters, hashes, integrity tree)")
	metaSize := fs.String("meta", "", "metadata-cache size (e.g. 128KB); empty = no metadata cache, or 64KB when -ways or -content is set")
	metaWays := fs.Int("ways", 0, "metadata-cache associativity (0 = default)")
	metaContent := fs.String("content", "", "metadata-cache content policy (counters, counters+hashes, all, ...)")
	asJSON := fs.Bool("json", false, "emit the full Result JSON instead of a summary")
	remote := fs.String("remote", "", "run via the mapsd daemon at this base URL instead of locally")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, `maps run — run one simulation

usage: maps run (-workload-spec spec.yaml | -bench NAME | -trace FILE) [flags]

Exactly one workload source is required. Workload specs compose
several synthetic clients — rate fractions, arrival processes,
per-client locality — into one deterministic access stream; traces
replay a recorded stream in constant memory. Examples:

  maps run -workload-spec mixed.yaml -meta 128KB -json
  maps run -bench canneal
  maps run -trace web.mtrc.gz -instructions 5000000

flags:
`)
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "maps run: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	sources := 0
	for _, s := range []string{*specFile, *bench, *traceFile} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 {
		fmt.Fprintln(os.Stderr, "maps run: exactly one of -workload-spec, -bench, or -trace is required")
		return 2
	}

	var spec *wspec.Spec
	if *specFile != "" {
		data, err := os.ReadFile(*specFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "maps run: %v\n", err)
			return 2
		}
		if spec, err = wspec.Parse(data); err != nil {
			fmt.Fprintf(os.Stderr, "maps run: %s: %v\n", *specFile, err)
			return 2
		}
	}

	cs := mapsim.ConfigSpec{
		Benchmark:    *bench,
		Workload:     spec,
		Instructions: *instructions,
		Seed:         *seed,
		Secure:       secure,
		Speculation:  *secure,
	}
	if *metaSize != "" || *metaWays != 0 || *metaContent != "" {
		size := defaultMetaSize
		if *metaSize != "" {
			var err error
			if size, err = cliutil.ParseSize(*metaSize); err != nil {
				fmt.Fprintf(os.Stderr, "maps run: -meta: %v\n", err)
				return 2
			}
		}
		cs.Meta = &mapsim.MetaSpec{Size: mapsim.ByteSize(size), Ways: *metaWays, Content: *metaContent}
	}
	// The wire spec is the one description of the run, local or remote:
	// ToSim validates it and fills its defaults (Table I's 8 ways) the
	// way the daemon does.
	cfg, err := cs.ToSim()
	if err != nil {
		fmt.Fprintf(os.Stderr, "maps run: %v\n", err)
		return 2
	}

	start := time.Now()
	var res *mapsim.Result
	if *remote != "" {
		// Traces cannot travel: they are files on this machine, outside
		// the canonical config encoding the daemon dedupes on.
		if *traceFile != "" {
			fmt.Fprintln(os.Stderr, "maps run: -trace is machine-local and cannot run via -remote; replay it locally")
			return 2
		}
		res, err = mapsim.NewClient(*remote).RunRemote(context.Background(), cs)
	} else {
		cfg.TracePath = *traceFile
		res, err = mapsim.Run(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "maps run: %v\n", err)
		return 1
	}

	// Timing describes how this run executed, not what it simulated;
	// strip it so output is bit-identical across repeats (the wall
	// clock goes to stderr instead).
	res.Timing = sim.PhaseTiming{}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintf(os.Stderr, "maps run: %v\n", err)
			return 1
		}
	} else {
		fmt.Printf("benchmark      %s\n", res.Benchmark)
		fmt.Printf("instructions   %d\n", res.Instructions)
		fmt.Printf("cycles         %d\n", res.Cycles)
		fmt.Printf("ipc            %.4f\n", res.IPC)
		fmt.Printf("llc mpki       %.4f\n", res.LLCMPKI)
		if res.MetaMPKI > 0 || res.MetaHitRate > 0 {
			fmt.Printf("meta mpki      %.4f\n", res.MetaMPKI)
			fmt.Printf("meta hit rate  %.4f\n", res.MetaHitRate)
		}
		fmt.Printf("energy (pJ)    %.0f\n", res.EnergyPJ)
		fmt.Printf("ed^2           %.4g\n", res.ED2)
	}
	fmt.Fprintf(os.Stderr, "[run completed in %v]\n", time.Since(start).Round(time.Millisecond))
	return 0
}
