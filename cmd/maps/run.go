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
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/sim"
	wspec "github.com/maps-sim/mapsim/internal/workload/spec"
)

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
	metaSize := fs.String("meta", "", "metadata-cache size (e.g. 128KB); empty = Table I default")
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

	var meta *metacache.Config
	if *metaSize != "" || *metaWays != 0 || *metaContent != "" {
		size := 0
		if *metaSize != "" {
			var err error
			if size, err = cliutil.ParseSize(*metaSize); err != nil {
				fmt.Fprintf(os.Stderr, "maps run: -meta: %v\n", err)
				return 2
			}
		}
		content, err := metacache.ParseContent(*metaContent)
		if err != nil {
			fmt.Fprintf(os.Stderr, "maps run: -content: %v\n", err)
			return 2
		}
		meta = &metacache.Config{Size: size, Ways: *metaWays, Content: content}
	}

	start := time.Now()
	var res *mapsim.Result
	var err error
	if *remote != "" {
		res, err = runRemoteOnce(*remote, spec, *bench, *traceFile, *instructions, *seed, *secure, *metaSize, *metaWays, *metaContent)
	} else {
		cfg := sim.Config{
			Benchmark:    *bench,
			WorkloadSpec: spec,
			TracePath:    *traceFile,
			Instructions: *instructions,
			Seed:         *seed,
			Secure:       *secure,
			Speculation:  *secure,
			Meta:         meta,
		}
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

// runRemoteOnce ships a single run to a mapsd daemon. Traces cannot
// travel: they are files on this machine, outside the canonical
// config encoding the daemon dedupes on.
func runRemoteOnce(baseURL string, spec *wspec.Spec, bench, tracePath string, instructions uint64, seed int64, secure bool, metaSize string, metaWays int, metaContent string) (*mapsim.Result, error) {
	if tracePath != "" {
		return nil, fmt.Errorf("-trace is machine-local and cannot run via -remote; replay it locally")
	}
	cs := mapsim.ConfigSpec{
		Benchmark:    bench,
		Workload:     spec,
		Instructions: instructions,
		Seed:         seed,
		Secure:       &secure,
		Speculation:  secure,
	}
	if metaSize != "" || metaWays != 0 || metaContent != "" {
		size := 0
		if metaSize != "" {
			var err error
			if size, err = cliutil.ParseSize(metaSize); err != nil {
				return nil, fmt.Errorf("-meta: %w", err)
			}
		}
		cs.Meta = &mapsim.MetaSpec{Size: mapsim.ByteSize(size), Ways: metaWays, Content: metaContent}
	}
	return mapsim.NewClient(baseURL).RunRemote(context.Background(), cs)
}
