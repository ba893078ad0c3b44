package fleet

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/maps-sim/mapsim/internal/jobs"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/sweep"
)

// groupSpec is a 16-point grid with one front: lbm at 8 metadata-cache
// sizes × two replacement policies, secure.
func groupSpec() sweep.Spec {
	var sizes []int
	for kb := 4; kb <= 512; kb *= 2 {
		sizes = append(sizes, kb<<10)
	}
	return sweep.Spec{
		Base: sim.Config{Benchmark: "lbm", Instructions: 20_000, Secure: true},
		Axes: sweep.Axes{
			Meta:     sweep.IntAxis{Points: sizes},
			Policies: []string{"plru", "lru"},
		},
	}
}

// fakeGroupRunner is a fakeRunner that also runs groups, one point
// after another, recording each group's size.
type fakeGroupRunner struct {
	*fakeRunner
	// failGroup, when set, decides each group call's fate first.
	failGroup func(call int) error

	gmu    sync.Mutex
	groups []int
}

func newFakeGroupRunner(name string, delay time.Duration) *fakeGroupRunner {
	return &fakeGroupRunner{fakeRunner: newFakeRunner(name, delay)}
}

func (f *fakeGroupRunner) RunGroup(ctx context.Context, points []sweep.Point, timeout time.Duration) ([]*sim.Result, error) {
	f.gmu.Lock()
	f.groups = append(f.groups, len(points))
	call := len(f.groups)
	f.gmu.Unlock()
	if f.failGroup != nil {
		if err := f.failGroup(call); err != nil {
			return nil, err
		}
	}
	out := make([]*sim.Result, len(points))
	for i, p := range points {
		r, err := f.fakeRunner.Run(ctx, p, timeout, false)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

func (f *fakeGroupRunner) groupSizes() []int {
	f.gmu.Lock()
	defer f.gmu.Unlock()
	return append([]int(nil), f.groups...)
}

// TestGroupLaneClaimsWholeGroups: 16 cold points sharing a front on
// two slots go out as two groups of eight.
func TestGroupLaneClaimsWholeGroups(t *testing.T) {
	g := newFakeGroupRunner("pool", time.Millisecond)
	del := newDeliveries()
	cache := newCountingCache()
	c := &Coordinator{Workers: []Worker{{Runner: g, MaxInflight: 2}}, OnPoint: del.onPoint, Cache: cache}
	res, err := c.Run(context.Background(), groupSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 16 {
		t.Fatalf("done %d, want 16", res.Done)
	}
	del.assertExactlyOnce(t, 16)
	if got := g.groupSizes(); !reflect.DeepEqual(got, []int{8, 8}) {
		t.Fatalf("group sizes %v, want two groups of 8", got)
	}
	if n := cache.maxPuts(); n != 1 {
		t.Fatalf("a point was stored %d times, want once", n)
	}
	for i := range res.Points {
		if res.Points[i].Result.IPC != 1+float64(i) {
			t.Fatalf("point %d holds another point's result", i)
		}
	}
}

// TestMixedLanesRunGroupsOfOne: a plain Runner lane beside a group
// lane only ever gets single points, and every point is delivered
// and stored once.
func TestMixedLanesRunGroupsOfOne(t *testing.T) {
	g := newFakeGroupRunner("pool", 2*time.Millisecond)
	plain := newFakeRunner("remote", time.Millisecond)
	del := newDeliveries()
	cache := newCountingCache()
	c := &Coordinator{
		Workers: []Worker{{Runner: g, MaxInflight: 1}, {Runner: plain, MaxInflight: 1}},
		OnPoint: del.onPoint,
		Cache:   cache,
	}
	res, err := c.Run(context.Background(), groupSpec())
	if err != nil {
		t.Fatal(err)
	}
	del.assertExactlyOnce(t, 16)
	if n := cache.maxPuts(); n != 1 {
		t.Fatalf("a point was stored %d times, want once", n)
	}
	for _, n := range g.groupSizes() {
		if n > 8 {
			t.Fatalf("group of %d on 2 slots, want at most 8", n)
		}
	}
	if len(plain.ranPoints())+len(g.ranPoints()) != 16 {
		t.Fatalf("lanes ran %d points, want 16", len(plain.ranPoints())+len(g.ranPoints()))
	}
	if len(plain.ranPoints()) == 0 {
		t.Fatal("the plain lane ran nothing")
	}
	for i := range res.Points {
		if w := res.Points[i].Worker; w != "pool" && w != "remote" {
			t.Fatalf("point %d attributed to %q", i, w)
		}
	}
}

// TestGroupWorkerFailureReissues: a group hit by a worker failure
// re-issues every member; each point is still delivered and stored
// exactly once.
func TestGroupWorkerFailureReissues(t *testing.T) {
	flaky := newFakeGroupRunner("flaky", time.Millisecond)
	flaky.failGroup = func(call int) error {
		if call == 1 {
			return WorkerFailure(errors.New("connection reset"))
		}
		return nil
	}
	ok := newFakeRunner("ok", time.Millisecond)
	del := newDeliveries()
	cache := newCountingCache()
	m := &Metrics{}
	c := &Coordinator{
		Workers: []Worker{{Runner: flaky, MaxInflight: 1}, {Runner: ok, MaxInflight: 1}},
		OnPoint: del.onPoint,
		Cache:   cache,
		Metrics: m,
	}
	res, err := c.Run(context.Background(), groupSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 16 {
		t.Fatalf("done %d, want 16", res.Done)
	}
	del.assertExactlyOnce(t, 16)
	if n := cache.maxPuts(); n != 1 {
		t.Fatalf("a point was stored %d times, want once", n)
	}
	if len(flaky.groupSizes()) == 0 {
		t.Fatal("the group lane never claimed a group")
	}
	if m.Snapshot()["flaky"].Failures == 0 {
		t.Fatal("the failed group recorded no worker failures")
	}
}

// TestGroupStragglerReissue: a group held past its scaled straggler
// deadline is re-issued point by point to a fast lane; the
// first completion of each point wins and the slow group's late
// results are discarded.
func TestGroupStragglerReissue(t *testing.T) {
	slow := newFakeGroupRunner("slow", 100*time.Millisecond)
	fast := newFakeRunner("fast", time.Millisecond)
	del := newDeliveries()
	cache := newCountingCache()
	m := &Metrics{}
	c := &Coordinator{
		Workers:        []Worker{{Runner: slow, MaxInflight: 1}, {Runner: fast, MaxInflight: 1}},
		OnPoint:        del.onPoint,
		Cache:          cache,
		Metrics:        m,
		StragglerAfter: 5 * time.Millisecond,
	}
	res, err := c.Run(context.Background(), groupSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 16 {
		t.Fatalf("done %d, want 16", res.Done)
	}
	del.assertExactlyOnce(t, 16)
	if n := cache.maxPuts(); n != 1 {
		t.Fatalf("a point was stored %d times, want once", n)
	}
	snap := m.Snapshot()
	if snap["slow"].Reissues == 0 {
		t.Fatalf("slow group held past its deadline but no re-issue recorded: %+v", snap)
	}
	if snap["fast"].Steals == 0 {
		t.Fatalf("fast lane should have stolen re-issued group points: %+v", snap)
	}
}

// TestPoolRunnerGroupsMatchLocalRuns runs the 16-point grid through a
// real pool lane, grouped, and requires every point to equal its
// config run alone (host timing aside), stored once.
func TestPoolRunnerGroupsMatchLocalRuns(t *testing.T) {
	pool := jobs.New(2, 4)
	defer pool.Shutdown(context.Background())
	cache := newCountingCache()
	c := &Coordinator{
		Workers: []Worker{{Runner: &PoolRunner{Pool: pool}, MaxInflight: 2}},
		Cache:   cache,
	}
	spec := groupSpec()
	res, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := cache.maxPuts(); n != 1 {
		t.Fatalf("a point was stored %d times, want once", n)
	}
	points, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var timeSum time.Duration
	for i, p := range points {
		cfg, err := sweep.Instantiate(p)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := *res.Points[i].Result
		timeSum += got.Timing.Total
		got.Timing, direct.Timing = sim.PhaseTiming{}, sim.PhaseTiming{}
		if !reflect.DeepEqual(&got, direct) {
			t.Errorf("point %d (%s): grouped fleet result differs from a local run", i, p)
		}
	}
	if timeSum <= 0 {
		t.Error("grouped points report no host time")
	}
}
