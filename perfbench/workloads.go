package main

import (
	"fmt"
	"time"

	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/server"
	"github.com/maps-sim/mapsim/internal/sim"
)

// workloadDef is one benchmark workload: single-goroutine simulation
// batches of one benchmark, alternating with service rounds (an
// in-process mapsd driven by one closed-loop client) over a grid of
// the same benchmark. No service goroutine exists while a batch runs.
// Why each was chosen is recorded in BENCHMARK.json and README.md.
type workloadDef struct {
	name  string
	bench string
	grid  gridDef
}

// gridDef is the service's grid, as sweeps of 16 points each; each
// round serves one of them, in turn. Short sweeps, timed many times,
// keep a median clear of the hypervisor's occasional 10 ms time
// slices, which a long sweep always contains a varying number of.
// Each point simulates instructions.
type gridDef struct {
	sweeps       []server.SweepAxes
	instructions uint64
}

// simInstructions is the measured length of one simulation-phase run:
// short, so that a run's many samples spread over its whole time.
const simInstructions = 2_000_000

// benchGrid is a workload's service grid: its own benchmark
// at 8 metadata-cache sizes × 4 content policies × policies, one
// sweep per content policy.
func benchGrid(bench string) gridDef {
	g := gridDef{instructions: 100_000}
	for _, c := range []string{"counters", "counters+hashes", "counters+tree", "all"} {
		g.sweeps = append(g.sweeps, server.SweepAxes{
			Benchmarks: []string{bench},
			Meta:       sizes(4<<10, 8<<10, 16<<10, 32<<10, 64<<10, 128<<10, 256<<10, 512<<10),
			Contents:   []string{c},
			Policies:   policies,
		})
	}
	return g
}

func sizes(bytes ...int) server.SweepIntAxis {
	var a server.SweepIntAxis
	for _, b := range bytes {
		a.Points = append(a.Points, server.ByteSize(b))
	}
	return a
}

var workloads = []workloadDef{
	{name: "secure-canneal", bench: "canneal", grid: benchGrid("canneal")},
	{name: "secure-perlbench", bench: "perlbench", grid: benchGrid("perlbench")},
	{name: "secure-lbm", bench: "lbm", grid: benchGrid("lbm")},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// checkInstructions is the length of the digest-checked runs that
// digests.json records.
const checkInstructions = 2_000_000

// probeWriteRounds is how many rounds' points the traced run's put
// and journal-append probes write: one whole grid.
const probeWriteRounds = 4

// policies are the replacement policies every grid sweeps.
var policies = []string{"plru", "lru"}

// plan sizes one run. fullPlan is what the benchmark measures; the
// tests shrink it.
type plan struct {
	// simBudget is the simulation phase's measuring time, split
	// evenly over the rounds; every round runs at least once.
	simBudget time.Duration
	// simInstructions is the length of one timed run.
	simInstructions uint64
	// setupsPerRun is how many short runs after each timed run
	// measure simulation set-up.
	setupsPerRun int

	// A run is rounds of a simulation batch and a service round: one
	// cold sweep, memPasses memory-tier resubmits, diskPasses
	// restarts each followed by a disk-tier pass, and jobsPerRound
	// cached jobs. Many short rounds spread every metric's samples
	// over many stretches of the machine's varying speed. When
	// tracing, the content-addressing probe then repeats
	// probeRepeats times.
	rounds       int
	memPasses    int
	diskPasses   int
	jobsPerRound int
	probeRepeats int
}

func fullPlan(seconds int) plan {
	return plan{
		simBudget:       time.Duration(seconds) * time.Second,
		simInstructions: simInstructions,
		setupsPerRun:    5,
		rounds:          40,
		memPasses:       4,
		diskPasses:      3,
		jobsPerRound:    100,
		probeRepeats:    4,
	}
}

// secureConfig is the RunSecure configuration: secure memory with
// speculation and a 64 KB 8-way metadata cache.
func secureConfig(bench string, instructions uint64, seed int64) sim.Config {
	return sim.Config{
		Benchmark:    bench,
		Instructions: instructions,
		Seed:         seed,
		Secure:       true,
		Speculation:  true,
		Meta:         &metacache.Config{Size: 64 << 10, Ways: 8},
	}
}

// gridRequest is round r's sweep: the grid's sweeps in turn, with a
// base seed no other round shares, so every round's points are cold.
func gridRequest(w workloadDef, seed int64, round int) server.SweepRequest {
	secure := true
	return server.SweepRequest{
		Base: server.ConfigSpec{
			Instructions: w.grid.instructions,
			Seed:         seed*1000 + int64(round) + 1,
			Secure:       &secure,
			Speculation:  true,
			Meta:         &server.MetaSpec{Size: 64 << 10},
		},
		Axes: w.grid.sweeps[round%len(w.grid.sweeps)],
	}
}
