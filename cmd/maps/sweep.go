package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/maps-sim/mapsim"
	"github.com/maps-sim/mapsim/internal/cliutil"
	"github.com/maps-sim/mapsim/internal/fleet"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/sweep"
	wspec "github.com/maps-sim/mapsim/internal/workload/spec"
)

// runSweepCmd implements the `maps sweep` verb: a declarative
// parameter sweep over benchmark × size × policy axes, run locally
// through fleet.RunLocal or remotely via a mapsd daemon's POST
// /v1/sweeps. Returns the process exit code.
func runSweepCmd(args []string) int {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	benchmarks := fs.String("benchmarks", "canneal,libquantum", "comma-separated benchmark axis")
	specFiles := fs.String("workload-specs", "", `comma-separated workload-spec files (YAML or JSON) added to the benchmark axis; pass -benchmarks "" for a spec-only sweep`)
	metaFlag := fs.String("meta", "", `metadata-cache size axis: sizes ("16KB,64KB,1MB") or a doubling range ("16KB..2MB")`)
	llcFlag := fs.String("llc", "", `LLC size axis: sizes or a doubling range (empty = Table I's 2MB)`)
	contents := fs.String("contents", "", "content-policy axis (counters, counters+hashes, all, ...)")
	policies := fs.String("policies", "", "replacement-policy axis (plru, lru, srrip, eva, eva-pertype, typepred)")
	partitions := fs.String("partitions", "", "partition axis (none, static:N, dynamic)")
	secure := fs.String("secure", "true", "secure axis: true, false, or both")
	partial := fs.String("partial", "", "partial-writes axis: on, off, or both (empty = base default)")
	instructions := fs.Uint64("instructions", 2_000_000, "simulated instructions per point")
	parallel := fs.Int("parallel", 0, "concurrent points (default NumCPU locally, pool workers remotely)")
	asJSON := fs.Bool("json", false, "emit the sweep.Result JSON instead of rendered tables")
	remote := fs.String("remote", "", "run via the mapsd daemon at this base URL instead of locally")
	noCache := fs.Bool("no-cache", false, "remote only: skip result-cache lookups (points still stored)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, `maps sweep — run a declarative parameter sweep

usage: maps sweep [flags]

Expands the axes into a config grid (benchmark outermost, partial
writes innermost), runs every point with bounded parallelism and
fail-fast cancellation, and prints per-axis geomeans plus a pivot
table. Example — the Figure 1 grid:

  maps sweep -benchmarks canneal,libquantum \
    -meta 16KB..2MB -contents counters,counters+hashes,all

Declarative workload specs (docs/WORKLOADS.md) sweep alongside named
benchmarks: -workload-specs mixed.yaml adds each spec to the
benchmark axis, locally and through -remote.

flags:
`)
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "maps sweep: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	meta, err := parseSizeAxis(*metaFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "maps sweep: -meta: %v\n", err)
		return 2
	}
	llc, err := parseSizeAxis(*llcFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "maps sweep: -llc: %v\n", err)
		return 2
	}
	secures, baseSecure, err := parseBoolAxis(*secure, "true", "false")
	if err != nil {
		fmt.Fprintf(os.Stderr, "maps sweep: -secure: %v\n", err)
		return 2
	}
	partials, _, err := parseBoolAxis(*partial, "on", "off")
	if err != nil {
		fmt.Fprintf(os.Stderr, "maps sweep: -partial: %v\n", err)
		return 2
	}
	specs, err := loadWorkloadSpecs(*specFiles)
	if err != nil {
		fmt.Fprintf(os.Stderr, "maps sweep: -workload-specs: %v\n", err)
		return 2
	}

	axes := sweep.Axes{
		Benchmarks:    splitList(*benchmarks),
		WorkloadSpecs: specs,
		Secure:        secures,
		LLC:           llc,
		Meta:          meta,
		Contents:      splitList(*contents),
		Policies:      splitList(*policies),
		Partitions:    splitList(*partitions),
		PartialWrites: partials,
	}

	var res *sweep.Result
	if *remote != "" {
		res, err = runSweepRemote(*remote, axes, *instructions, baseSecure, *parallel, *noCache)
	} else {
		spec := sweep.Spec{
			Base: sim.Config{
				Instructions: *instructions,
				Secure:       baseSecure,
				Speculation:  baseSecure,
			},
			Axes: axes,
		}
		res, err = fleet.RunLocal(context.Background(), spec, *parallel)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "maps sweep: %v\n", err)
		return 1
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintf(os.Stderr, "maps sweep: %v\n", err)
			return 1
		}
		return 0
	}
	fmt.Println(res.Render())
	return 0
}

// runSweepRemote ships the sweep to a mapsd daemon and streams its
// per-point completion counts to stderr while waiting.
func runSweepRemote(baseURL string, axes sweep.Axes, instructions uint64, secure bool, parallel int, noCache bool) (*sweep.Result, error) {
	toWire := func(a sweep.IntAxis) mapsim.SweepIntAxis {
		out := mapsim.SweepIntAxis{
			Min:    mapsim.ByteSize(a.Min),
			Max:    mapsim.ByteSize(a.Max),
			Factor: a.Factor,
		}
		for _, p := range a.Points {
			out.Points = append(out.Points, mapsim.ByteSize(p))
		}
		return out
	}
	req := mapsim.SweepRequest{
		Base: mapsim.ConfigSpec{
			Instructions: instructions,
			Secure:       &secure,
			Speculation:  secure,
		},
		Axes: mapsim.SweepAxes{
			Benchmarks:    axes.Benchmarks,
			WorkloadSpecs: axes.WorkloadSpecs,
			Secure:        axes.Secure,
			LLC:           toWire(axes.LLC),
			Meta:          toWire(axes.Meta),
			Contents:      axes.Contents,
			Policies:      axes.Policies,
			Partitions:    axes.Partitions,
			PartialWrites: axes.PartialWrites,
		},
		Parallelism: parallel,
		NoCache:     noCache,
	}
	c := mapsim.NewClient(baseURL)
	last := time.Now()
	return c.RunSweepRemote(context.Background(), req, func(st mapsim.SweepStatus) {
		// Throttle the progress feed to one line per second (plus the
		// terminal line) so big sweeps don't flood stderr.
		if st.State.Terminal() || time.Since(last) >= time.Second {
			last = time.Now()
			// Per-worker attribution ("local:12 http://w2:3") lets an
			// operator spot fleet skew from the progress feed alone.
			var byWorker string
			if len(st.Workers) > 0 {
				names := make([]string, 0, len(st.Workers))
				for name := range st.Workers {
					names = append(names, name)
				}
				sort.Strings(names)
				parts := make([]string, len(names))
				for i, name := range names {
					parts[i] = fmt.Sprintf("%s:%d", name, st.Workers[name])
				}
				byWorker = ", " + strings.Join(parts, " ")
			}
			fmt.Fprintf(os.Stderr, "[sweep %s: %d/%d points, %d deduped%s]\n",
				st.ID, st.Done, st.Total, st.Deduped, byWorker)
		}
	})
}

// loadWorkloadSpecs reads and validates a comma-separated list of
// workload-spec files for the sweep's workload axis.
func loadWorkloadSpecs(s string) ([]*wspec.Spec, error) {
	var specs []*wspec.Spec
	for _, path := range splitList(s) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		sp, err := wspec.Parse(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		specs = append(specs, sp)
	}
	return specs, nil
}

// splitList splits a comma-separated flag, dropping empty items.
func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}

// parseSizeAxis parses a byte-size axis flag: a comma list of sizes
// ("16KB,64KB,1MB"), a doubling range ("16KB..2MB"), or empty (axis
// absent).
func parseSizeAxis(s string) (sweep.IntAxis, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return sweep.IntAxis{}, nil
	}
	if lo, hi, ok := strings.Cut(s, ".."); ok {
		min, err := cliutil.ParseSize(lo)
		if err != nil {
			return sweep.IntAxis{}, err
		}
		max, err := cliutil.ParseSize(hi)
		if err != nil {
			return sweep.IntAxis{}, err
		}
		return sweep.IntAxis{Min: min, Max: max}, nil
	}
	var axis sweep.IntAxis
	for _, item := range splitList(s) {
		n, err := cliutil.ParseSize(item)
		if err != nil {
			return sweep.IntAxis{}, err
		}
		axis.Points = append(axis.Points, n)
	}
	return axis, nil
}

// parseBoolAxis parses an on/off axis flag: onWord, offWord, "both"
// (sweep both values), or empty (no axis). It returns the axis values
// plus the base value for single-valued flags.
func parseBoolAxis(s, onWord, offWord string) (axis []bool, base bool, err error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "":
		return nil, true, nil
	case onWord:
		return nil, true, nil
	case offWord:
		return nil, false, nil
	case "both":
		return []bool{false, true}, true, nil
	}
	return nil, false, fmt.Errorf("want %s, %s, or both (got %q)", onWord, offWord, s)
}
