package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/maps-sim/mapsim"
	"github.com/maps-sim/mapsim/internal/cliutil"
	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/stats"
	"github.com/maps-sim/mapsim/internal/sweep"
	wspec "github.com/maps-sim/mapsim/internal/workload/spec"
)

// defaultMetaSize is the metadata-cache capacity `maps run` simulates
// when another metadata-cache flag is given without -meta: the 64 KB
// cache the paper's single-size figures use.
const defaultMetaSize = 64 << 10

// runRunCmd implements the `maps run` verb: one simulation of a named
// benchmark, a declarative workload spec, or a recorded trace — or,
// with -suite, one per registered benchmark — run locally or against
// a mapsd daemon. Returns the process exit code.
func runRunCmd(args []string) int {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	specFile := fs.String("workload-spec", "", "workload-spec file (YAML or JSON); see docs/WORKLOADS.md")
	bench := fs.String("bench", "", "named benchmark to run (see -list)")
	traceFile := fs.String("trace", "", "recorded workload trace to replay (see mapstrace record-workload)")
	suite := fs.Bool("suite", false, "run every registered benchmark and print a summary with geomeans")
	list := fs.Bool("list", false, "list the registered benchmarks and exit")
	instructions := fs.Uint64("instructions", 2_000_000, "simulated instructions")
	seed := fs.Int64("seed", 0, "workload seed")
	secure := fs.Bool("secure", true, "enable secure memory (counters, hashes, integrity tree)")
	speculation := fs.Bool("speculation", true, "hide verification latency (PoisonIvy); secure runs only")
	org := fs.String("org", "pi", "counter organization: pi or sgx")
	metaSize := fs.String("meta", "", "metadata-cache size (e.g. 128KB); empty = no metadata cache, or 64KB when another metadata-cache flag is set")
	metaWays := fs.Int("ways", 0, "metadata-cache associativity (0 = Table I's 8)")
	metaContent := fs.String("content", "", "metadata-cache content policy (counters, counters+hashes, all, ...)")
	policy := fs.String("policy", "", "metadata-cache replacement policy: "+strings.Join(sweep.PolicyNames(), ", ")+" (default plru)")
	partial := fs.Bool("partial-writes", false, "insert placeholders for hash and tree write misses")
	asJSON := fs.Bool("json", false, "emit the full Result JSON instead of a summary")
	remote := fs.String("remote", "", "run via the mapsd daemon at this base URL instead of locally")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, `maps run — run one simulation

usage: maps run (-workload-spec spec.yaml | -bench NAME | -trace FILE) [flags]
       maps run -suite [flags]
       maps run -list

Exactly one workload source is required, unless -suite runs every
registered benchmark. Workload specs compose several synthetic
clients — rate fractions, arrival processes, per-client locality —
into one deterministic access stream; traces replay a recorded stream
in constant memory. Examples:

  maps run -workload-spec mixed.yaml -meta 128KB -json
  maps run -bench canneal -meta 64KB -policy eva -content all -partial-writes
  maps run -suite -meta 64KB -instructions 1000000
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
	if *list {
		for _, n := range mapsim.Benchmarks() {
			fmt.Println(n)
		}
		return 0
	}

	sources := 0
	for _, s := range []string{*specFile, *bench, *traceFile} {
		if s != "" {
			sources++
		}
	}
	switch {
	case *suite && sources > 0:
		fmt.Fprintln(os.Stderr, "maps run: -suite runs every registered benchmark; drop -workload-spec, -bench, and -trace")
		return 2
	case !*suite && sources != 1:
		fmt.Fprintln(os.Stderr, "maps run: exactly one of -workload-spec, -bench, or -trace is required")
		return 2
	case *remote != "" && *traceFile != "":
		// Traces cannot travel: they are files on this machine, outside
		// the canonical config encoding the daemon dedupes on.
		fmt.Fprintln(os.Stderr, "maps run: -trace is machine-local and cannot run via -remote; replay it locally")
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
		Org:          *org,
		Speculation:  *secure && *speculation,
	}
	if *metaSize != "" || *metaWays != 0 || *metaContent != "" || *policy != "" || *partial {
		size := defaultMetaSize
		if *metaSize != "" {
			var err error
			if size, err = cliutil.ParseSize(*metaSize); err != nil {
				fmt.Fprintf(os.Stderr, "maps run: -meta: %v\n", err)
				return 2
			}
		}
		cs.Meta = &mapsim.MetaSpec{
			Size: mapsim.ByteSize(size), Ways: *metaWays, Content: *metaContent,
			Policy: *policy, PartialWrites: *partial,
		}
	}
	// The wire spec is the one description of the run, local or remote:
	// Point validates it and names its policy the way the daemon does.
	p, err := cs.Point()
	if err != nil {
		fmt.Fprintf(os.Stderr, "maps run: %v\n", err)
		return 2
	}
	if *suite && (p.Policy != "" || p.Partition != "") {
		// A suite sweeps the benchmark axis alone, over a base that
		// names no policy: suites run the pseudo-LRU default.
		fmt.Fprintln(os.Stderr, "maps run: -suite runs the default replacement policy; drop -policy")
		return 2
	}

	start := time.Now()
	var out any
	if *suite {
		out, err = runSuite(cs, p, *remote)
	} else {
		out, err = runOne(cs, p, *remote, *traceFile)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "maps run: %v\n", err)
		return 1
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "maps run: %v\n", err)
			return 1
		}
	} else if res, ok := out.(*sim.Result); ok {
		printRun(res, *secure)
	} else {
		fmt.Println(out.(*sim.SuiteResult).Render())
	}
	fmt.Fprintf(os.Stderr, "[run completed in %v]\n", time.Since(start).Round(time.Millisecond))
	return 0
}

// runOne simulates the point locally, or submits its wire spec to the
// daemon at remote. Timing describes how the run executed, not what it
// simulated, so it is stripped: output is bit-identical across repeats
// and between the two paths (the wall clock goes to stderr instead).
func runOne(cs mapsim.ConfigSpec, p sweep.Point, remote, tracePath string) (*sim.Result, error) {
	var res *sim.Result
	if remote != "" {
		var err error
		if res, err = mapsim.NewClient(remote).RunRemote(context.Background(), cs); err != nil {
			return nil, err
		}
	} else {
		cfg, err := sweep.Instantiate(p)
		if err != nil {
			return nil, err
		}
		cfg.TracePath = tracePath
		if res, err = mapsim.Run(cfg); err != nil {
			return nil, err
		}
	}
	res.Timing = sim.PhaseTiming{}
	return res, nil
}

// runSuite runs the point's config over every registered benchmark as
// a sweep of the benchmark axis: locally through mapsim.RunSuite, or as
// a sweep on the daemon at remote, whose store then holds every
// benchmark's run. Host timing is stripped as runOne does.
func runSuite(cs mapsim.ConfigSpec, p sweep.Point, remote string) (*sim.SuiteResult, error) {
	benchmarks := mapsim.Benchmarks()
	var res *sim.SuiteResult
	if remote != "" {
		sr, err := mapsim.NewClient(remote).RunSweepRemote(context.Background(), mapsim.SweepRequest{
			Base: cs, Axes: mapsim.SweepAxes{Benchmarks: benchmarks},
		}, nil)
		if err != nil {
			return nil, err
		}
		res = sr.Suite()
	} else {
		var err error
		if res, err = mapsim.RunSuite(p.Config, benchmarks, 0); err != nil {
			return nil, err
		}
	}
	res.Wall = 0
	for _, r := range res.PerBench {
		r.Timing = sim.PhaseTiming{}
	}
	return res, nil
}

// printRun writes one run's summary lines, then its metadata-cache
// accesses by kind, tree levels, and (secure runs) memory traffic by
// stream.
func printRun(res *sim.Result, secure bool) {
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
	fmt.Printf("reencryptions  %d\n", res.PageReencryptions)
	fmt.Printf("dram accesses  %d (row hit %.2f)\n", res.DRAM.Accesses(), res.DRAM.RowHitRate())

	if res.Meta != nil {
		var t stats.Table
		t.AddRow("kind", "accesses", "hits", "misses", "MPKI")
		for _, k := range memlayout.MetaKinds {
			s := res.Meta[k]
			t.AddRow(k.String(), fmt.Sprint(s.Accesses), fmt.Sprint(s.Hits),
				fmt.Sprint(s.Misses), fmt.Sprintf("%.2f", s.MPKI))
		}
		fmt.Printf("\nmetadata cache by kind:\n%s", t.String())
	}
	if len(res.TreeLevels) > 0 {
		var t stats.Table
		t.AddRow("level", "accesses", "hits", "hit rate")
		for lev, s := range res.TreeLevels {
			rate := 0.0
			if s.Accesses > 0 {
				rate = float64(s.Hits) / float64(s.Accesses)
			}
			t.AddRow(fmt.Sprint(lev), fmt.Sprint(s.Accesses), fmt.Sprint(s.Hits), fmt.Sprintf("%.3f", rate))
		}
		fmt.Printf("\ntree levels (leaf first):\n%s", t.String())
	}
	if secure {
		m := res.Mem
		var t stats.Table
		t.AddRow("stream", "reads", "writes")
		t.AddRow("data", fmt.Sprint(m.DataReads), fmt.Sprint(m.DataWrites))
		t.AddRow("counters", fmt.Sprint(m.CounterReads), fmt.Sprint(m.CounterWrites))
		t.AddRow("hashes", fmt.Sprint(m.HashReads), fmt.Sprint(m.HashWrites))
		t.AddRow("tree", fmt.Sprint(m.TreeReads), fmt.Sprint(m.TreeWrites))
		fmt.Printf("\nmemory traffic:\n%s", t.String())
	}
}
