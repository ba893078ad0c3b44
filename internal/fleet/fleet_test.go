package fleet

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/maps-sim/mapsim/internal/faults"
	"github.com/maps-sim/mapsim/internal/results"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/sweep"
)

// testSpec is a small grid (2 benchmarks × 2 meta sizes = 4 points,
// or ×2 contents = 8) the fake runners never actually simulate.
func testSpec(contents bool) sweep.Spec {
	s := sweep.Spec{
		Base: sim.Config{Instructions: 20_000, Secure: true},
		Axes: sweep.Axes{
			Benchmarks: []string{"canneal", "libquantum"},
			Meta:       sweep.IntAxis{Points: []int{16 << 10, 64 << 10}},
		},
	}
	if contents {
		s.Axes.Contents = []string{"counters", "all"}
	}
	return s
}

// fakeRunner is a scriptable in-memory worker.
type fakeRunner struct {
	name    string
	delay   time.Duration
	healthy atomic.Bool
	// fail, when set, decides each call's fate before any result is
	// produced; ran records the indexes of successfully executed
	// points.
	fail func(p sweep.Point, call int) error

	mu    sync.Mutex
	ran   []int
	calls int
}

func newFakeRunner(name string, delay time.Duration) *fakeRunner {
	f := &fakeRunner{name: name, delay: delay}
	f.healthy.Store(true)
	return f
}

func (f *fakeRunner) Name() string                 { return f.name }
func (f *fakeRunner) Healthy(context.Context) bool { return f.healthy.Load() }
func (f *fakeRunner) ranPoints() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.ran...)
}

func (f *fakeRunner) Run(ctx context.Context, p sweep.Point, _ time.Duration, _ bool) (*sim.Result, error) {
	f.mu.Lock()
	f.calls++
	call := f.calls
	f.mu.Unlock()
	if f.delay > 0 {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(f.delay):
		}
	}
	if f.fail != nil {
		if err := f.fail(p, call); err != nil {
			return nil, err
		}
	}
	f.mu.Lock()
	f.ran = append(f.ran, p.Index)
	f.mu.Unlock()
	// Deterministic per-point payload so exactly-once and identity
	// checks can compare results structurally.
	return &sim.Result{
		Benchmark: p.Benchmark,
		IPC:       1 + float64(p.Index),
		LLCMPKI:   float64(p.Index + 1),
	}, nil
}

// countingCache records puts per key so tests can prove exactly-once
// storage.
type countingCache struct {
	mu   sync.Mutex
	m    map[results.Key]any
	puts map[results.Key]int
	gets int
}

func newCountingCache() *countingCache {
	return &countingCache{m: make(map[results.Key]any), puts: make(map[results.Key]int)}
}

func (c *countingCache) Get(_ context.Context, key results.Key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets++
	v, ok := c.m[key]
	return v, ok
}

func (c *countingCache) Put(key results.Key, value any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = value
	c.puts[key]++
}

func (c *countingCache) maxPuts() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	max := 0
	for _, n := range c.puts {
		if n > max {
			max = n
		}
	}
	return max
}

// deliveries collects OnPoint callbacks and checks exactly-once.
type deliveries struct {
	mu   sync.Mutex
	seen map[int]int
}

func newDeliveries() *deliveries { return &deliveries{seen: make(map[int]int)} }

func (d *deliveries) onPoint(pr sweep.PointResult) {
	d.mu.Lock()
	d.seen[pr.Index]++
	d.mu.Unlock()
}

func (d *deliveries) assertExactlyOnce(t *testing.T, total int) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.seen) != total {
		t.Fatalf("delivered %d distinct points, want %d", len(d.seen), total)
	}
	for idx, n := range d.seen {
		if n != 1 {
			t.Errorf("point %d delivered %d times, want exactly once", idx, n)
		}
	}
}

func TestCoordinatorCompletesGrid(t *testing.T) {
	a, b := newFakeRunner("a", 0), newFakeRunner("b", 0)
	del := newDeliveries()
	m := &Metrics{}
	c := &Coordinator{
		Workers: []Worker{{Runner: a, MaxInflight: 2}, {Runner: b, MaxInflight: 2}},
		OnPoint: del.onPoint,
		Metrics: m,
	}
	res, err := c.Run(context.Background(), testSpec(true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 8 || res.Total != 8 {
		t.Fatalf("done %d/%d, want 8/8", res.Done, res.Total)
	}
	del.assertExactlyOnce(t, 8)
	for i := range res.Points {
		p := &res.Points[i]
		if p.Result == nil {
			t.Fatalf("point %d has no result", i)
		}
		if p.Worker != "a" && p.Worker != "b" {
			t.Fatalf("point %d attributed to %q", i, p.Worker)
		}
		if p.Result.IPC != 1+float64(i) {
			t.Fatalf("point %d: result out of order (IPC %v)", i, p.Result.IPC)
		}
	}
	snap := m.Snapshot()
	var done uint64
	for _, s := range snap {
		done += s.Done
		if s.Inflight != 0 {
			t.Errorf("inflight gauge nonzero after completion: %+v", snap)
		}
	}
	if done != 8 {
		t.Fatalf("metrics count %d completions, want 8", done)
	}
	if len(a.ranPoints())+len(b.ranPoints()) != 8 {
		t.Fatalf("workers ran %d+%d points, want 8 total", len(a.ranPoints()), len(b.ranPoints()))
	}
}

// TestCoordinatorDeterministicAcrossFleets proves the aggregate is a
// pure function of the grid: the same spec through different fleet
// shapes yields identical points and geomeans.
func TestCoordinatorDeterministicAcrossFleets(t *testing.T) {
	run := func(workers ...Worker) *sweep.Result {
		t.Helper()
		c := &Coordinator{Workers: workers}
		res, err := c.Run(context.Background(), testSpec(true))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := run(Worker{Runner: newFakeRunner("solo", 0), MaxInflight: 1})
	three := run(
		Worker{Runner: newFakeRunner("w1", 0), MaxInflight: 2},
		Worker{Runner: newFakeRunner("w2", time.Millisecond), MaxInflight: 1},
		Worker{Runner: newFakeRunner("w3", 0), MaxInflight: 3},
	)
	if len(one.Geomeans) == 0 {
		t.Fatal("no geomeans aggregated")
	}
	if fmt.Sprintf("%+v", one.Geomeans) != fmt.Sprintf("%+v", three.Geomeans) {
		t.Fatalf("aggregates differ across fleet shapes:\n1 worker: %+v\n3 workers: %+v",
			one.Geomeans, three.Geomeans)
	}
	for i := range one.Points {
		if one.Points[i].Result.IPC != three.Points[i].Result.IPC {
			t.Fatalf("point %d differs across fleet shapes", i)
		}
	}
}

// TestWorkerDeathReissue kills a worker after two completions; every
// remaining point must re-issue to the survivor.
func TestWorkerDeathReissue(t *testing.T) {
	dying := newFakeRunner("dying", 0)
	var deaths atomic.Uint64
	dying.fail = func(_ sweep.Point, call int) error {
		if call > 2 {
			deaths.Add(1)
			dying.healthy.Store(false) // a dead daemon also fails probes
			return WorkerFailure(errors.New("connection refused"))
		}
		return nil
	}
	ok := newFakeRunner("ok", 2*time.Millisecond)
	del := newDeliveries()
	m := &Metrics{}
	c := &Coordinator{
		Workers:       []Worker{{Runner: dying, MaxInflight: 2}, {Runner: ok, MaxInflight: 2}},
		OnPoint:       del.onPoint,
		Metrics:       m,
		HealthBackoff: time.Millisecond,
	}
	res, err := c.Run(context.Background(), testSpec(true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 8 {
		t.Fatalf("done %d, want 8", res.Done)
	}
	del.assertExactlyOnce(t, 8)
	if deaths.Load() > 0 {
		snap := m.Snapshot()
		if snap["dying"].Failures == 0 {
			t.Fatalf("worker died %d times but no failures recorded: %+v", deaths.Load(), snap)
		}
	}
	if got := len(ok.ranPoints()) + len(dying.ranPoints()); got != 8 {
		t.Fatalf("workers ran %d points total, want 8", got)
	}
}

// TestStolenStragglerExactlyOnce re-issues a slow worker's point to a
// fast one; when both finish, the duplicate must be discarded and the
// store written once per point.
func TestStolenStragglerExactlyOnce(t *testing.T) {
	slow := newFakeRunner("slow", 300*time.Millisecond)
	fast := newFakeRunner("fast", 2*time.Millisecond)
	del := newDeliveries()
	m := &Metrics{}
	cache := newCountingCache()
	c := &Coordinator{
		Workers:        []Worker{{Runner: slow, MaxInflight: 1}, {Runner: fast, MaxInflight: 1}},
		OnPoint:        del.onPoint,
		Metrics:        m,
		Cache:          cache,
		StragglerAfter: 25 * time.Millisecond,
	}
	res, err := c.Run(context.Background(), testSpec(true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 8 {
		t.Fatalf("done %d, want 8", res.Done)
	}
	del.assertExactlyOnce(t, 8)
	if n := cache.maxPuts(); n > 1 {
		t.Fatalf("a point was stored %d times, want at most once", n)
	}
	snap := m.Snapshot()
	if snap["slow"].Reissues == 0 {
		t.Fatalf("slow worker held points past the straggler deadline but no re-issue recorded: %+v", snap)
	}
	if snap["fast"].Steals == 0 {
		t.Fatalf("fast worker should have stolen a re-issued point: %+v", snap)
	}
}

// TestUnhealthyWorkerExcluded proves a worker whose probe fails never
// executes a point and the transition is counted once.
func TestUnhealthyWorkerExcluded(t *testing.T) {
	sick := newFakeRunner("sick", 0)
	sick.healthy.Store(false)
	ok := newFakeRunner("ok", time.Millisecond)
	del := newDeliveries()
	m := &Metrics{}
	c := &Coordinator{
		Workers:       []Worker{{Runner: sick, MaxInflight: 2}, {Runner: ok, MaxInflight: 2}},
		OnPoint:       del.onPoint,
		Metrics:       m,
		HealthBackoff: time.Millisecond,
	}
	res, err := c.Run(context.Background(), testSpec(true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 8 {
		t.Fatalf("done %d, want 8", res.Done)
	}
	del.assertExactlyOnce(t, 8)
	if got := sick.ranPoints(); len(got) != 0 {
		t.Fatalf("unhealthy worker executed points %v", got)
	}
	for i := range res.Points {
		if res.Points[i].Worker != "ok" {
			t.Fatalf("point %d attributed to %q, want ok", i, res.Points[i].Worker)
		}
	}
	snap := m.Snapshot()
	if snap["sick"].Unhealthy > 1 {
		t.Fatalf("steady unhealthy state double-counted: %d transitions", snap["sick"].Unhealthy)
	}
}

// TestSimulationErrorFailsFast: a non-worker failure aborts the sweep
// with the point identified.
func TestSimulationErrorFailsFast(t *testing.T) {
	bad := newFakeRunner("bad", 0)
	bad.fail = func(p sweep.Point, _ int) error {
		if p.Index == 2 {
			return errors.New("simulation exploded")
		}
		return nil
	}
	c := &Coordinator{Workers: []Worker{{Runner: bad, MaxInflight: 2}}}
	_, err := c.Run(context.Background(), testSpec(false))
	if err == nil {
		t.Fatal("want fail-fast error")
	}
	if !strings.Contains(err.Error(), "point 2") || !strings.Contains(err.Error(), "simulation exploded") {
		t.Fatalf("error does not identify the failing point: %v", err)
	}
}

// TestGiveUpAfterAttempts: a point whose every issue hits a worker
// failure eventually fails the sweep with the attempt count.
func TestGiveUpAfterAttempts(t *testing.T) {
	broken := newFakeRunner("broken", 0)
	broken.fail = func(sweep.Point, int) error {
		return WorkerFailure(errors.New("always down"))
	}
	c := &Coordinator{
		Workers:     []Worker{{Runner: broken, MaxInflight: 1}},
		MaxAttempts: 3,
	}
	_, err := c.Run(context.Background(), testSpec(false))
	if err == nil || !strings.Contains(err.Error(), "gave up after 3 attempts") {
		t.Fatalf("want give-up error after 3 attempts, got: %v", err)
	}
}

// TestCachePrepassDedupesEverything: a fully warmed cache means no
// dispatches at all.
func TestCachePrepassDedupesEverything(t *testing.T) {
	spec := testSpec(true)
	points, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	cache := newCountingCache()
	for _, p := range points {
		pol, part := sweep.CacheNames(p)
		key, err := results.PointKeyFor(p.Config, pol, part)
		if err != nil {
			t.Fatal(err)
		}
		cache.m[key] = &sim.Result{Benchmark: p.Benchmark, IPC: 42}
	}
	idle := newFakeRunner("idle", 0)
	c := &Coordinator{
		Workers: []Worker{{Runner: idle, MaxInflight: 2}},
		Cache:   cache,
	}
	res, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deduped != len(points) || res.Done != len(points) {
		t.Fatalf("deduped %d/%d done %d, want all %d cached", res.Deduped, res.Total, res.Done, len(points))
	}
	if got := idle.ranPoints(); len(got) != 0 {
		t.Fatalf("cached sweep still dispatched points %v", got)
	}
	for i := range res.Points {
		if !res.Points[i].Cached || res.Points[i].Worker != "" {
			t.Fatalf("point %d: Cached=%v Worker=%q, want cached with no worker", i, res.Points[i].Cached, res.Points[i].Worker)
		}
	}
}

// TestPrepassTakesCallerLookups: Keys and Hits replace the pre-pass's
// own keying and lookups for the prefix the caller already looked up —
// a caller-reported miss dispatches even if the cache now holds the
// point — and the rest of the grid is looked up once.
func TestPrepassTakesCallerLookups(t *testing.T) {
	spec := testSpec(true)
	points, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	cache := newCountingCache()
	keys := make([]results.Key, len(points))
	for i, p := range points {
		pol, part := sweep.CacheNames(p)
		if keys[i], err = results.PointKeyFor(p.Config, pol, part); err != nil {
			t.Fatal(err)
		}
		cache.m[keys[i]] = &sim.Result{Benchmark: p.Benchmark, IPC: 42}
	}
	hits := []*sim.Result{{Benchmark: points[0].Benchmark, IPC: 1}, {Benchmark: points[1].Benchmark, IPC: 2}, nil}
	runner := newFakeRunner("w", 0)
	c := &Coordinator{
		Workers: []Worker{{Runner: runner, MaxInflight: 2}},
		Cache:   cache,
		Keys:    keys,
		Hits:    hits,
	}
	res, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Points[0].Result != hits[0] || res.Points[1].Result != hits[1] {
		t.Fatal("pre-pass did not serve the caller's hits")
	}
	if got := runner.ranPoints(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("dispatched %v, want only the caller's miss, point 2", got)
	}
	if cache.gets != len(points)-len(hits) {
		t.Fatalf("%d cache lookups, want %d: none for the caller's prefix", cache.gets, len(points)-len(hits))
	}
	if res.Deduped != len(points)-1 {
		t.Fatalf("deduped %d, want %d", res.Deduped, len(points)-1)
	}
}

// TestDispatchFaultPoint: a fully armed fleet.dispatch fault turns
// every dispatch into a worker failure, exhausting the attempt cap.
func TestDispatchFaultPoint(t *testing.T) {
	defer faults.DisarmAll()
	if err := faults.ArmSpec(FaultDispatch + ":err"); err != nil {
		t.Fatal(err)
	}
	m := &Metrics{}
	c := &Coordinator{
		Workers:     []Worker{{Runner: newFakeRunner("w", 0), MaxInflight: 1}},
		MaxAttempts: 2,
		Metrics:     m,
	}
	_, err := c.Run(context.Background(), testSpec(false))
	if err == nil || !strings.Contains(err.Error(), "gave up") {
		t.Fatalf("want give-up error under dispatch fault, got: %v", err)
	}
	if m.Snapshot()["w"].Failures == 0 {
		t.Fatal("dispatch faults not recorded as worker failures")
	}
}

// TestHealthFaultPoint: a fully armed fleet.health fault makes every
// worker look sick; the sweep stalls until the caller's deadline.
func TestHealthFaultPoint(t *testing.T) {
	defer faults.DisarmAll()
	if err := faults.ArmSpec(FaultHealth + ":err"); err != nil {
		t.Fatal(err)
	}
	m := &Metrics{}
	c := &Coordinator{
		Workers:       []Worker{{Runner: newFakeRunner("w", 0), MaxInflight: 1}},
		HealthBackoff: time.Millisecond,
		Metrics:       m,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	_, err := c.Run(ctx, testSpec(false))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline exceeded while all workers look sick, got: %v", err)
	}
	if m.Snapshot()["w"].Unhealthy == 0 {
		t.Fatal("health-fault transitions not recorded")
	}
}

// TestParentCancelPropagates: canceling the caller's context aborts
// the sweep with the context error.
func TestParentCancelPropagates(t *testing.T) {
	slow := newFakeRunner("slow", 200*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{Workers: []Worker{{Runner: slow, MaxInflight: 1}}}
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := c.Run(ctx, testSpec(false))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got: %v", err)
	}
}

func TestNoWorkers(t *testing.T) {
	c := &Coordinator{}
	if _, err := c.Run(context.Background(), testSpec(false)); err == nil {
		t.Fatal("want error with no workers")
	}
}
