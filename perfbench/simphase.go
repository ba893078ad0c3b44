package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"github.com/maps-sim/mapsim/internal/sim"
)

// digestOf hashes a run's simulated output: the Result with Timing
// (host time) and Sharding (how it executed) stripped.
func digestOf(res *sim.Result) string {
	r := *res
	r.Timing = sim.PhaseTiming{}
	r.Sharding = nil
	data, err := json.Marshal(r)
	if err != nil {
		panic(err) // a Result always marshals
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// simPhase holds what the simulation phase measured.
type simPhase struct {
	minstrPerS []float64 // one per timed run
	allocMB    []float64 // one per timed run
	setupS     []float64 // one per set-up run, interleaved with the timed runs
	heapPeak   uint64

	// Traced runs only.
	stageRatio []float64 // Σ stage time / direct warmup+measure time
	overhead   []float64 // traced wall / direct wall
	figs       simFigures
	accesses   uint64 // replayed accesses, all traced runs
	events     uint64 // replayed back-end events, all traced runs

	digest string // of the first run's result
}

// checkDigests runs w's configuration at the check length on the
// default and the held-out seed and compares each Result with its
// recorded digest.
func checkDigests(t *tally, w workloadDef) {
	want, ok := recordedDigests[w.name]
	if !ok {
		t.fail(fmt.Errorf("%s: no recorded digests", w.name))
		return
	}
	for _, seed := range digestSeeds {
		t.attempt()
		res, err := runCheck(w, seed)
		if err != nil {
			t.fail(err)
			continue
		}
		if got := digestOf(res); got != want[fmt.Sprint(seed)] {
			t.fail(fmt.Errorf("%s seed %d: result digest %s, recorded %s", w.name, seed, got, want[fmt.Sprint(seed)]))
		}
	}
}

// runCheck is one digest-checked run.
func runCheck(w workloadDef, seed int64) (*sim.Result, error) {
	return sim.Run(secureConfig(w.bench, checkInstructions, seed))
}

// measure runs cfg for budget (at least one run): direct sim.Run
// calls, each also replayed under spans when rec is set. Every run
// uses the same seed, so every one must simulate the same result.
func (ph *simPhase) measure(t *tally, rec *recorder, cfg sim.Config, p plan, budget time.Duration) {
	warmup := cfg.Instructions / 10
	deadline := time.Now().Add(budget)
	runtime.GC() // the service round before leaves garbage
	heap := startHeapSampler()
	defer func() { ph.heapPeak = max(ph.heapPeak, heap.stop()) }()
	for first := true; first || time.Now().Before(deadline); first = false {
		runtime.GC()
		a0 := allocatedBytes()
		t0 := time.Now()
		res, err := sim.Run(cfg)
		direct := time.Since(t0)
		alloc := allocatedBytes() - a0
		t.attempt()
		if err != nil {
			t.fail(err)
			continue
		}
		n := len(ph.minstrPerS)
		if d := digestOf(res); ph.digest == "" {
			ph.digest = d
		} else if d != ph.digest {
			t.fail(fmt.Errorf("%s: repetition %d simulated a different result", cfg.Benchmark, n))
		}
		host := res.Timing.Warmup + res.Timing.Measure
		ph.minstrPerS = append(ph.minstrPerS, float64(warmup+res.Instructions)/host.Seconds()/1e6)
		ph.allocMB = append(ph.allocMB, float64(alloc)/(1<<20))
		ph.setupS = append(ph.setupS, setupTimes(t, cfg, p.setupsPerRun)...)
		if rec != nil {
			ph.traceRep(t, rec, cfg, res, direct, fmt.Sprintf("%s-rep%d", cfg.Benchmark, n))
		}
	}
}

// traceRep replays cfg stage by stage under spans and checks it
// against the direct run res, which took wall time direct.
func (ph *simPhase) traceRep(t *tally, rec *recorder, cfg sim.Config, res *sim.Result, direct time.Duration, op string) {
	runtime.GC()
	first := len(rec.spans)
	t0 := time.Now()
	r, err := newReplay(cfg)
	t.attempt()
	if err != nil {
		t.fail(err)
		return
	}
	figs := r.run(rec, op)
	traced := time.Since(t0)
	if err := sameFigures(figs, figuresOf(res)); err != nil {
		t.fail(fmt.Errorf("%s: %w", cfg.Benchmark, err))
	}
	var stages time.Duration
	for _, s := range rec.spans[first:] {
		if s.Name != spanRun {
			stages += s.dur()
		}
	}
	ph.stageRatio = append(ph.stageRatio, float64(stages)/float64(res.Timing.Warmup+res.Timing.Measure))
	ph.overhead = append(ph.overhead, float64(traced)/float64(direct))
	ph.figs = figs
	ph.accesses += r.accesses
	ph.events += r.events
}

// setupTimes runs n short simulations of cfg and returns each one's
// set-up time (building the hierarchy, DRAM model and engine). They
// run after every timed run, so the set-up samples spread over the
// whole phase as the timed runs do.
func setupTimes(t *tally, cfg sim.Config, n int) []float64 {
	cfg.Instructions = 1000
	var out []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t.attempt()
		res, err := sim.Run(cfg)
		if err != nil {
			t.fail(err)
			continue
		}
		out = append(out, res.Timing.Setup.Seconds())
	}
	return out
}
