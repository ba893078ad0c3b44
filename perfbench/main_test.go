package main

import (
	"encoding/json"
	"os"
	"testing"

	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/sweep"
)

// tinyPlan runs every phase and check, at a scale that finishes in
// seconds.
func tinyPlan() plan {
	p := fullPlan(1)
	p.simBudget = 0
	p.simInstructions = 200_000
	p.setupsPerRun = 2
	p.rounds = 2
	p.memPasses = 1
	p.diskPasses = 1
	p.jobsPerRound = 5
	p.probeRepeats = 1
	return p
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEveryMetricPrinted runs every workload untraced and traced and
// checks that the result line names exactly BENCHMARK.json's metrics,
// each with its declared unit, and that every check passed.
func TestEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := loadBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	devnull, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	for _, bw := range b.Workloads {
		w, err := lookupWorkload(bw.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			out, err := run(w, tinyPlan(), 7, traced, t.TempDir(), devnull)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, out.Correct, out.Attempted, out.Failed)
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json declares %d", w.name, traced, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not printed", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s in %q, BENCHMARK.json says %q", w.name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v", w.name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestPredictionsCoverLayers checks that every per-layer metric has a
// prediction naming end-to-end metrics and workloads that exist.
func TestPredictionsCoverLayers(t *testing.T) {
	b := loadBenchmarkFile(t)
	e2e := map[string]bool{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = true
	}
	wl := map[string]bool{}
	for _, w := range b.Workloads {
		wl[w.Name] = true
	}
	predicted := map[string]bool{}
	for _, p := range predictions {
		predicted[p.Layer] = true
		for _, m := range p.Moves {
			if !e2e[m] {
				t.Errorf("prediction for %s moves unknown metric %s", p.Layer, m)
			}
		}
		for _, w := range p.Workloads {
			if !wl[w] {
				t.Errorf("prediction for %s names unknown workload %s", p.Layer, w)
			}
		}
	}
	for _, m := range b.PerLayer {
		if !predicted[m.Name] {
			t.Errorf("per-layer metric %s has no prediction", m.Name)
		}
	}
}

// TestReplayMatchesRun checks that the staged replay reproduces
// sim.Run exactly on the three simulation workloads, on an insecure
// run, and on a non-default metadata-cache policy.
func TestReplayMatchesRun(t *testing.T) {
	lru := sweep.Point{Config: secureConfig("mcf", 300_000, 5), Policy: "lru"}
	lru.Config.Meta = &metacache.Config{Size: 32 << 10, Ways: 8, Content: metacache.CountersOnly}
	cases := map[string]func() (sim.Config, error){
		"secure-canneal":   func() (sim.Config, error) { return secureConfig("canneal", 300_000, 3), nil },
		"secure-perlbench": func() (sim.Config, error) { return secureConfig("perlbench", 300_000, 3), nil },
		"secure-lbm":       func() (sim.Config, error) { return secureConfig("lbm", 300_000, 3), nil },
		"insecure-canneal": func() (sim.Config, error) {
			return sim.Config{Benchmark: "canneal", Instructions: 300_000, Seed: 3}, nil
		},
		"sgx-lbm-no-metacache": func() (sim.Config, error) {
			return sim.Config{Benchmark: "lbm", Instructions: 300_000, Seed: 3, Secure: true, Org: memlayout.SGX}, nil
		},
		"lru-mcf": func() (sim.Config, error) { return sweep.Instantiate(lru) },
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			cfg, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if cfg, err = mk(); err != nil { // fresh policy instances
				t.Fatal(err)
			}
			r, err := newReplay(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec := newRecorder()
			figs := r.run(rec, name)
			if err := sameFigures(figs, figuresOf(res)); err != nil {
				t.Fatal(err)
			}
			if figs.Hier[2].Misses == 0 || r.events == 0 {
				t.Fatalf("replay produced no LLC misses or events: %+v", figs)
			}
			self := rec.selfTimes()
			for _, s := range []string{spanWorkload, spanHierarchy, spanEngine} {
				if self[s] <= 0 {
					t.Errorf("no self time recorded for %s", s)
				}
			}
		})
	}
}

// TestReplayDetectsDivergence guards the comparison itself: a replay
// of another seed must not pass as the direct run.
func TestReplayDetectsDivergence(t *testing.T) {
	res, err := sim.Run(secureConfig("canneal", 200_000, 1))
	if err != nil {
		t.Fatal(err)
	}
	r, err := newReplay(secureConfig("canneal", 200_000, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := sameFigures(r.run(nil, "x"), figuresOf(res)); err == nil {
		t.Fatal("a replay of seed 2 matched the direct run of seed 1")
	}
}

// TestRecordedDigestsMatch checks digests.json against the current
// simulator for every simulation workload and digest seed.
func TestRecordedDigestsMatch(t *testing.T) {
	for _, w := range workloads {
		tl := &tally{}
		checkDigests(tl, w)
		if tl.failed != 0 || tl.attempted != len(digestSeeds) {
			t.Errorf("%s: %d of %d digest checks failed", w.name, tl.failed, tl.attempted)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (10 samples beyond it)", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
