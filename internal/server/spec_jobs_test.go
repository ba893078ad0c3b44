package server

import (
	"net/http"
	"testing"

	"github.com/maps-sim/mapsim/internal/jobs"
	"github.com/maps-sim/mapsim/internal/sweep"
)

// specRunBody is a two-client declarative workload run, spelled in
// wire JSON exactly as mapsim.Client ships it.
const specRunBody = `{"type":"run","config":{
	"workload": {
		"name": "svc-mix",
		"clients": [
			{"name": "fg", "rate_fraction": 0.7, "footprint": 262144,
			 "arrival": {"process": "poisson"}},
			{"name": "bg", "rate_fraction": 0.3, "footprint": 524288,
			 "write_fraction": 0.5, "arrival": {"process": "gamma", "cv": 2.0}}
		]
	},
	"instructions": 30000,
	"meta": {"size": "64KB"}
}}`

// specRunBodyRespelled is the same workload with reordered fields,
// explicit defaults, and a byte-size string: it must dedupe against
// specRunBody through the canonical hash.
const specRunBodyRespelled = `{"type":"run","config":{
	"instructions": 30000,
	"meta": {"size": "64KB"},
	"workload": {
		"version": 1,
		"mean_gap": 4,
		"name": "svc-mix",
		"clients": [
			{"name": "fg", "rate_fraction": 0.7, "footprint": "256KB",
			 "sequential_run": 1, "arrival": {"process": "poisson"}},
			{"name": "bg", "rate_fraction": 0.3, "footprint": "512KB",
			 "write_fraction": 0.5, "arrival": {"process": "gamma", "cv": 2.0}}
		]
	}
}}`

func TestSpecRunEndToEndAndDedupe(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	st, resp := postJob(t, ts, specRunBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	final := waitDone(t, ts, st.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("job: %+v", final)
	}
	var res JobResult
	if resp := getJSON(t, ts, "/v1/jobs/"+st.ID+"/result", &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d", resp.StatusCode)
	}
	if res.Type != TypeRun || res.Run == nil {
		t.Fatalf("bad result envelope: %+v", res)
	}
	if res.Run.Benchmark != "svc-mix" || res.Run.Instructions == 0 {
		t.Fatalf("result: benchmark=%q instructions=%d", res.Run.Benchmark, res.Run.Instructions)
	}

	// An equivalent spelling must hit the cache, not re-simulate.
	st2, _ := postJob(t, ts, specRunBodyRespelled)
	if st2.Key != st.Key {
		t.Fatalf("respelled spec got key %s, want %s", st2.Key, st.Key)
	}
	if !st2.CacheHit {
		t.Fatalf("respelled spec missed the cache: %+v", st2)
	}
}

func TestSpecRunRejectsInvalidSpec(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// Fractions sum to 0.5: validation must fail at submit time with
	// a 4xx, not enqueue a job that dies later.
	body := `{"type":"run","config":{"workload":{
		"name": "broken",
		"clients": [{"name": "a", "rate_fraction": 0.5, "footprint": 262144}]
	},"instructions": 10000}}`
	_, resp := postJob(t, ts, body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec: status %d, want 400", resp.StatusCode)
	}
}

// A suite is a sweep over the benchmark axis; a workload spec in its
// base would override every benchmark, so the sweep refuses it.
func TestSuiteRejectsWorkloadSpec(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := `{"base":{"workload":{
		"name": "svc-mix",
		"clients": [{"name": "a", "rate_fraction": 1, "footprint": 262144}]
	},"instructions": 10000},"axes":{"benchmarks":["fft"]}}`
	_, resp := postSweep(t, ts, body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("suite with workload spec: status %d, want 400", resp.StatusCode)
	}
}

// specSweepBody sweeps a named benchmark and a declarative spec
// through the same axes: (fft + svc-mix) × 2 meta sizes = 4 points.
const specSweepBody = `{
	"base": {"instructions": 20000, "speculation": true},
	"axes": {
		"benchmarks": ["fft"],
		"workload_specs": [{
			"name": "svc-mix",
			"clients": [
				{"name": "fg", "rate_fraction": 0.7, "footprint": 262144,
				 "arrival": {"process": "poisson"}},
				{"name": "bg", "rate_fraction": 0.3, "footprint": 524288,
				 "write_fraction": 0.5, "arrival": {"process": "gamma", "cv": 2.0}}
			]
		}],
		"meta": {"points": ["16KB", "64KB"]}
	}
}`

func TestSpecSweepEndToEndWithDedupe(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 16, CacheEntries: 64})

	st, resp := postSweep(t, ts, specSweepBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if st.Total != 4 {
		t.Fatalf("total %d, want 4 (2 workloads x 2 meta sizes)", st.Total)
	}
	st = waitSweepDone(t, ts, st.ID)
	if st.State != jobs.StateDone || st.Done != 4 || st.Deduped != 0 {
		t.Fatalf("first sweep: %+v", st)
	}

	var res sweep.Result
	if resp := getJSON(t, ts, "/v1/sweeps/"+st.ID+"/result", &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d", resp.StatusCode)
	}
	benchmarks := map[string]int{}
	for _, p := range res.Points {
		if p.Result == nil {
			t.Fatalf("point %+v has no result", p.Point)
		}
		benchmarks[p.Point.Benchmark]++
	}
	if benchmarks["fft"] != 2 || benchmarks["svc-mix"] != 2 {
		t.Fatalf("benchmark distribution: %v", benchmarks)
	}

	// Resubmitting the identical grid must dedupe every point.
	st2, _ := postSweep(t, ts, specSweepBody)
	st2 = waitSweepDone(t, ts, st2.ID)
	if st2.State != jobs.StateDone || st2.Deduped != 4 {
		t.Fatalf("second sweep: %+v, want 4 deduped", st2)
	}
}
