package server

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"github.com/maps-sim/mapsim/internal/faults"
	"github.com/maps-sim/mapsim/internal/jobs"
	"github.com/maps-sim/mapsim/internal/results"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/store"
	"github.com/maps-sim/mapsim/internal/sweep"
)

// groupSweepBody is a 16-point grid with one front: lbm at 8
// metadata-cache sizes × two replacement policies.
const groupSweepBody = `{
	"base": {"benchmark": "lbm", "instructions": 20000},
	"axes": {
		"meta": {"points": ["4KB", "8KB", "16KB", "32KB", "64KB", "128KB", "256KB", "512KB"]},
		"policies": ["plru", "lru"]
	}
}`

// expandBody expands a sweep request body the way the server does.
func expandBody(t *testing.T, body string) []sweep.Point {
	t.Helper()
	var req SweepRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	spec, err := req.toSpec()
	if err != nil {
		t.Fatal(err)
	}
	points, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return points
}

// untimed serializes a result without its host timing.
func untimed(t *testing.T, r *sim.Result) string {
	t.Helper()
	c := *r
	c.Timing = sim.PhaseTiming{}
	data, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestSweepGroupedMatchesLocalRuns: a mapsd sweep whose points share
// a front runs them in groups sized to the pool (16 points on 2
// workers: two groups of 8), and every point it serves equals a local
// sim.Run of that point.
func TestSweepGroupedMatchesLocalRuns(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	st, resp := postSweep(t, ts, groupSweepBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if fin := waitSweepDone(t, ts, st.ID); fin.State != jobs.StateDone || fin.Done != 16 {
		t.Fatalf("sweep: %+v", fin)
	}
	if n := s.PoolStats().Completed; n != 16 {
		t.Errorf("pool counted %d simulated points, want 16", n)
	}
	res := getSweepResult(t, ts, st.ID)
	// Members of a run group report equal 1/k shares of its host
	// time: 16 points on 2 workers are two groups of 8.
	shares := map[sim.PhaseTiming]int{}
	for _, pr := range res.Points {
		shares[pr.Result.Timing]++
	}
	if len(shares) != 2 {
		t.Errorf("points report %d distinct timings, want 2 groups of 8: %v", len(shares), shares)
	}
	for tm, n := range shares {
		if n != 8 {
			t.Errorf("%d points share timing %+v, want 8", n, tm)
		}
	}
	for i, p := range expandBody(t, groupSweepBody) {
		cfg, err := sweep.Instantiate(p)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Points[i].Result; got == nil || untimed(t, got) != untimed(t, direct) {
			t.Errorf("point %d (%s): served result differs from a local sim.Run", i, p)
		}
		if res.Points[i].Result.Timing.Total <= 0 {
			t.Errorf("point %d reports no host time", i)
		}
	}
}

// TestSweepDoneMeansOnDisk: with disk writes slowed, a sweep reported
// done has no store writes pending, and a fresh store over the same
// directory serves every point.
func TestSweepDoneMeansOnDisk(t *testing.T) {
	defer faults.Reset()
	if err := faults.P("store.put").Arm(faults.Injection{Mode: faults.ModeDelay, Delay: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, ts, shutdown := newStoreServer(t, dir, nil)
	st, resp := postSweep(t, ts, sweepBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	fin := waitSweepDone(t, ts, st.ID)
	if fin.State != jobs.StateDone {
		t.Fatalf("sweep: %+v", fin)
	}
	ss := s.StoreStats()
	if ss.PendingWrites != 0 || ss.DiskPuts != uint64(fin.Total) {
		t.Fatalf("sweep done with %d writes pending and %d of %d on disk", ss.PendingWrites, ss.DiskPuts, fin.Total)
	}
	faults.Reset()
	shutdown()

	reopened, err := store.Open(store.Options{Memory: results.New(1), Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	for _, p := range expandBody(t, sweepBody) {
		pol, part := sweep.CacheNames(p)
		key, err := results.PointKeyFor(p.Config, pol, part)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := reopened.Get(t.Context(), key); !ok {
			t.Errorf("point %d (%s) missing from the reopened store", p.Index, p)
		}
	}
}
