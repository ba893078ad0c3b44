package mapsim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/maps-sim/mapsim"
	"github.com/maps-sim/mapsim/internal/fleet"
	"github.com/maps-sim/mapsim/internal/server"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/sweep"
)

// fleetDaemon starts one in-process mapsd and hands back its server
// plus the HTTP listener (so tests can kill a worker mid-sweep by
// closing it). A non-empty fleet makes it a coordinator: its single
// pool worker keeps the straggler deadline short so a point stuck
// behind a busy local pool re-issues to a remote in test time.
func fleetDaemon(t *testing.T, workers []fleet.Worker) (*server.Server, *httptest.Server) {
	t.Helper()
	cfg := server.Config{Workers: 2, QueueDepth: 32}
	if len(workers) > 0 {
		cfg.Workers = 1
		cfg.Fleet = workers
		// Long enough that a healthy remote point (tens of ms under the
		// race detector) never re-issues spuriously, short enough that
		// the point stuck behind the blocked local pool travels in test
		// time.
		cfg.FleetStragglerAfter = 500 * time.Millisecond
	}
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ts
}

// fleetWorkerFor adapts a daemon URL as a sweep worker with test-speed
// client knobs: fast polling, one quick retry so a killed worker is
// written off in milliseconds, not seconds.
func fleetWorkerFor(url string) fleet.Worker {
	c := mapsim.NewClient(url)
	c.PollInterval = 5 * time.Millisecond
	c.MaxRetries = 1
	c.RetryBase = 10 * time.Millisecond
	return mapsim.FleetWorker(c, 2)
}

// blockPool submits a job big enough to never finish, waits until it
// occupies the daemon's only pool worker, and returns a cancel func.
// With the local pool saturated, a coordinator's sweep points can only
// complete on remote workers — deterministic fan-out even on one CPU.
func blockPool(t *testing.T, c *mapsim.Client) func() {
	t.Helper()
	ctx := context.Background()
	st, err := c.Submit(ctx, mapsim.JobRequest{
		Type:   mapsim.JobRun,
		Config: mapsim.ConfigSpec{Benchmark: "canneal", Instructions: 1 << 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		j, err := c.Job(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == mapsim.JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("blocker job stuck in state %s", j.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return func() { c.Cancel(ctx, st.ID) }
}

// fleetSweepRequest is the shared 8-point grid: 2 benchmarks × 2 meta
// sizes × 2 content policies. Parallelism 1 bounds the coordinator's
// local lane to one slot.
func fleetSweepRequest() mapsim.SweepRequest {
	return mapsim.SweepRequest{
		Base: mapsim.ConfigSpec{Instructions: 60_000},
		Axes: mapsim.SweepAxes{
			Benchmarks: []string{"canneal", "libquantum"},
			Meta:       mapsim.SweepIntAxis{Points: []mapsim.ByteSize{16 << 10, 64 << 10}},
			Contents:   []string{"counters", "all"},
		},
		Parallelism: 1,
	}
}

// sanitizeSweep strips the host-time and attribution fields that
// legitimately differ between runs, leaving only simulation substance;
// the remainder must be byte-identical across fleet shapes.
func sanitizeSweep(t *testing.T, res *mapsim.SweepResult) []byte {
	t.Helper()
	cp := *res
	cp.Wall = 0
	cp.Deduped = 0
	cp.Points = append([]sweep.PointResult(nil), res.Points...)
	for i := range cp.Points {
		cp.Points[i].Worker = ""
		cp.Points[i].Cached = false
		if cp.Points[i].Result != nil {
			r := *cp.Points[i].Result
			r.Timing = sim.PhaseTiming{}
			cp.Points[i].Result = &r
		}
	}
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFleetSweepByteIdenticalToSingleDaemon is the acceptance path: the
// same sweep through a coordinator fanning out to two worker daemons
// must produce byte-identical results to one standalone daemon, with
// every grid point simulated exactly once across the whole fleet.
func TestFleetSweepByteIdenticalToSingleDaemon(t *testing.T) {
	ctx := context.Background()
	req := fleetSweepRequest()

	// Reference: one standalone daemon.
	srvSingle, tsSingle := fleetDaemon(t, nil)
	cSingle := mapsim.NewClient(tsSingle.URL)
	cSingle.PollInterval = 5 * time.Millisecond
	single, err := cSingle.RunSweepRemote(ctx, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if single.Done != 8 || single.Deduped != 0 {
		t.Fatalf("single-daemon sweep: %d done, %d deduped, want 8/0", single.Done, single.Deduped)
	}
	if got := srvSingle.PoolStats().Completed; got != 8 {
		t.Fatalf("single daemon simulated %d points, want 8", got)
	}

	// Fleet: coordinator A fanning out to workers B and C, A's own
	// pool pinned busy so every point must travel.
	srvB, tsB := fleetDaemon(t, nil)
	srvC, tsC := fleetDaemon(t, nil)
	_, tsA := fleetDaemon(t, []fleet.Worker{fleetWorkerFor(tsB.URL), fleetWorkerFor(tsC.URL)})
	cA := mapsim.NewClient(tsA.URL)
	cA.PollInterval = 5 * time.Millisecond
	unblock := blockPool(t, cA)
	defer unblock()

	var last mapsim.SweepStatus
	var mu sync.Mutex
	fleetRes, err := cA.RunSweepRemote(ctx, req, func(st mapsim.SweepStatus) {
		mu.Lock()
		last = st
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}

	if got, want := sanitizeSweep(t, fleetRes), sanitizeSweep(t, single); !bytes.Equal(got, want) {
		t.Fatalf("fleet sweep differs from single-daemon sweep:\nfleet:  %s\nsingle: %s", got, want)
	}

	// Exactly-once across the fleet: the worker pools together
	// simulated each of the 8 points precisely one time (the
	// coordinator's own pool was busy the whole sweep).
	b, c := srvB.PoolStats().Completed, srvC.PoolStats().Completed
	if b+c != 8 {
		t.Fatalf("fleet simulated %d points (B=%d C=%d), want exactly 8", b+c, b, c)
	}
	for i := range fleetRes.Points {
		if w := fleetRes.Points[i].Worker; w != tsB.URL && w != tsC.URL {
			t.Fatalf("point %d attributed to %q, want a remote worker", i, w)
		}
	}

	// Watch-stream attribution: the final status accounts every
	// non-cached completion to a named worker.
	mu.Lock()
	defer mu.Unlock()
	sum := 0
	for _, n := range last.Workers {
		sum += n
	}
	if sum != last.Total-last.Deduped {
		t.Fatalf("per-worker attribution %v sums to %d, want %d", last.Workers, sum, last.Total-last.Deduped)
	}
}

// TestLocalSweepMatchesDaemonSweep ties `maps sweep`'s in-process
// path to the service path: the same spec through fleet.RunLocal and
// through an in-process mapsd must agree on every point — result
// (host timing aside), worker attribution, and cache flag — and on
// the per-axis geomeans.
func TestLocalSweepMatchesDaemonSweep(t *testing.T) {
	ctx := context.Background()
	req := fleetSweepRequest()
	base, err := req.Base.ToSim()
	if err != nil {
		t.Fatal(err)
	}
	var meta sweep.IntAxis
	for _, p := range req.Axes.Meta.Points {
		meta.Points = append(meta.Points, int(p))
	}
	spec := sweep.Spec{Base: base, Axes: sweep.Axes{
		Benchmarks: req.Axes.Benchmarks,
		Meta:       meta,
		Contents:   req.Axes.Contents,
	}}
	points, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	local, err := fleet.RunLocal(ctx, points, req.Parallelism, nil)
	if err != nil {
		t.Fatal(err)
	}

	_, ts := fleetDaemon(t, nil)
	c := mapsim.NewClient(ts.URL)
	c.PollInterval = 5 * time.Millisecond
	remote, err := c.RunSweepRemote(ctx, req, nil)
	if err != nil {
		t.Fatal(err)
	}

	if local.Total != 8 || remote.Total != local.Total || len(remote.Points) != len(local.Points) {
		t.Fatalf("local sweep has %d points, daemon sweep %d, want 8 each", local.Total, remote.Total)
	}
	pointJSON := func(pr sweep.PointResult) []byte {
		r := *pr.Result
		r.Timing = sim.PhaseTiming{}
		pr.Result = &r
		b, err := json.Marshal(pr)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for i := range local.Points {
		if l, r := pointJSON(local.Points[i]), pointJSON(remote.Points[i]); !bytes.Equal(l, r) {
			t.Errorf("point %d differs:\nlocal:  %s\ndaemon: %s", i, l, r)
		}
	}
	if !reflect.DeepEqual(local.Geomeans, remote.Geomeans) {
		t.Errorf("geomeans differ:\nlocal:  %+v\ndaemon: %+v", local.Geomeans, remote.Geomeans)
	}
}

// TestFleetSurvivesWorkerKilledMidSweep closes one worker daemon's
// listener partway through the sweep; its in-flight points must
// re-issue to the survivor and the final result must still match the
// single-daemon reference.
func TestFleetSurvivesWorkerKilledMidSweep(t *testing.T) {
	ctx := context.Background()
	req := fleetSweepRequest()
	req.Axes.Secure = []bool{false, true} // 16 points: enough runway to die mid-sweep

	_, tsSingle := fleetDaemon(t, nil)
	cSingle := mapsim.NewClient(tsSingle.URL)
	cSingle.PollInterval = 5 * time.Millisecond
	single, err := cSingle.RunSweepRemote(ctx, req, nil)
	if err != nil {
		t.Fatal(err)
	}

	_, tsB := fleetDaemon(t, nil)
	_, tsC := fleetDaemon(t, nil)
	_, tsA := fleetDaemon(t, []fleet.Worker{fleetWorkerFor(tsB.URL), fleetWorkerFor(tsC.URL)})
	cA := mapsim.NewClient(tsA.URL)
	cA.PollInterval = 5 * time.Millisecond
	unblock := blockPool(t, cA)
	defer unblock()

	var killOnce sync.Once
	fleetRes, err := cA.RunSweepRemote(ctx, req, func(st mapsim.SweepStatus) {
		if st.Done >= 2 {
			killOnce.Do(func() {
				// Sever live connections first so in-flight polls fail
				// immediately, then tear the listener down.
				tsB.CloseClientConnections()
				go tsB.Close()
			})
		}
	})
	if err != nil {
		t.Fatalf("sweep did not survive worker death: %v", err)
	}
	if fleetRes.Done != 16 {
		t.Fatalf("done %d, want 16", fleetRes.Done)
	}
	for i := range fleetRes.Points {
		if fleetRes.Points[i].Result == nil {
			t.Fatalf("point %d has no result after worker death", i)
		}
	}
	if got, want := sanitizeSweep(t, fleetRes), sanitizeSweep(t, single); !bytes.Equal(got, want) {
		t.Fatal("sweep results diverged from the single-daemon reference after a worker was killed mid-sweep")
	}
}

// TestClientReady covers the single-attempt health probe workers are
// gated on.
func TestClientReady(t *testing.T) {
	srv, ts := fleetDaemon(t, nil)
	c := mapsim.NewClient(ts.URL)
	ctx := context.Background()
	if err := c.Ready(ctx); err != nil {
		t.Fatalf("fresh daemon not ready: %v", err)
	}
	srv.MarkDraining()
	if err := c.Ready(ctx); err == nil {
		t.Fatal("draining daemon reported ready")
	}
	w := mapsim.NewWorkerRunner(c)
	if w.Healthy(ctx) {
		t.Fatal("WorkerRunner.Healthy true for a draining daemon")
	}
	if w.Name() != c.BaseURL {
		t.Fatalf("worker name %q, want base URL %q", w.Name(), c.BaseURL)
	}
}
