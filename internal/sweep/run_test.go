package sweep_test

// These tests execute sweeps end to end through internal/fleet, the
// one sweep executor: fleet.RunLocal, or a Coordinator over a
// PoolRunner where a test needs a cache or an observer. They live in
// the external test package because fleet itself imports sweep.

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/maps-sim/mapsim/internal/fleet"
	"github.com/maps-sim/mapsim/internal/jobs"
	"github.com/maps-sim/mapsim/internal/results"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/sweep"
)

// countingCache is an in-memory fleet.Cache that counts puts per key.
type countingCache struct {
	mu   sync.Mutex
	m    map[results.Key]any
	puts map[results.Key]int
}

func newCountingCache() *countingCache {
	return &countingCache{m: make(map[results.Key]any), puts: make(map[results.Key]int)}
}

func (c *countingCache) Get(_ context.Context, key results.Key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, ok
}

func (c *countingCache) Put(key results.Key, value any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = value
	c.puts[key]++
}

// localCoordinator is a Coordinator with one PoolRunner lane as wide
// as pool, the shape fleet.RunLocal builds.
func localCoordinator(pool *jobs.Pool) *fleet.Coordinator {
	return &fleet.Coordinator{Workers: []fleet.Worker{{
		Runner:      &fleet.PoolRunner{Pool: pool},
		MaxInflight: pool.Stats().Workers,
	}}}
}

// TestEngineDedupe (named for the executor it first covered): a
// repeated sweep is served wholly from the cache, and NoCache skips
// the lookups but still stores every result.
func TestEngineDedupe(t *testing.T) {
	pool := jobs.New(4, 16)
	defer pool.Shutdown(context.Background())
	cache := newCountingCache()

	spec := sweep.Fig1Spec()
	coord := localCoordinator(pool)
	coord.Cache = cache
	first, err := coord.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.Done != first.Total || first.Deduped != 0 {
		t.Fatalf("first run: done %d/%d, deduped %d", first.Done, first.Total, first.Deduped)
	}

	second, err := coord.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.Deduped != second.Total {
		t.Fatalf("second run deduped %d of %d points, want all", second.Deduped, second.Total)
	}
	for i := range second.Points {
		if !second.Points[i].Cached {
			t.Fatalf("point %d not marked cached on second run", i)
		}
		if second.Points[i].Result != first.Points[i].Result {
			t.Fatalf("point %d: cache returned a different result instance", i)
		}
	}

	// NoCache skips lookups but still counts and stores.
	spec.NoCache = true
	third, err := coord.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if third.Deduped != 0 {
		t.Fatalf("NoCache run deduped %d points, want 0", third.Deduped)
	}
	cache.mu.Lock()
	defer cache.mu.Unlock()
	if len(cache.puts) != third.Total {
		t.Fatalf("cache holds %d keys, want %d", len(cache.puts), third.Total)
	}
	for key, n := range cache.puts {
		if n != 2 {
			t.Fatalf("key %s stored %d times, want 2 (first run and NoCache run)", key, n)
		}
	}
}

// TestEngineFailFast (named for the executor it first covered): the
// first point error fails the sweep, names the point, and is never a
// cancellation victim.
func TestEngineFailFast(t *testing.T) {
	// A 100-byte metadata cache fails construction inside the
	// simulator (not divisible into 8-way 64B sets), deterministically.
	spec := sweep.Fig1Spec()
	spec.Axes.Meta = sweep.IntAxis{Points: []int{16 << 10, 100}}
	_, err := fleet.RunLocal(context.Background(), spec, 2)
	if err == nil {
		t.Fatal("sweep with an unbuildable point succeeded")
	}
	if !strings.Contains(err.Error(), "sweep: point") {
		t.Fatalf("error %q does not name the failing point", err)
	}
	if strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("cancellation victim masked the root cause: %v", err)
	}
}

// TestEngineCancelMidSweep (named for the executor it first covered):
// canceling the caller's context from the point observer stops the
// sweep with context.Canceled.
func TestEngineCancelMidSweep(t *testing.T) {
	pool := jobs.New(2, 8)
	defer pool.Shutdown(context.Background())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coord := localCoordinator(pool)
	coord.OnPoint = func(sweep.PointResult) { cancel() } // cancel after the first completion
	_, err := coord.Run(ctx, sweep.Fig1Spec())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestSweepMatchesDirectRun checks the acceptance criterion behind the
// fig1 refactor: a sweep-produced point is byte-identical (host timing
// zeroed) to running its materialized config directly.
func TestSweepMatchesDirectRun(t *testing.T) {
	spec := sweep.Fig1Spec()
	res, err := fleet.RunLocal(context.Background(), spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	points, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 5} { // one point per benchmark
		direct, err := sim.Run(points[i].Config)
		if err != nil {
			t.Fatal(err)
		}
		a, b := *res.Points[i].Result, *direct
		a.Timing, b.Timing = sim.PhaseTiming{}, sim.PhaseTiming{}
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if string(aj) != string(bj) {
			t.Errorf("point %d (%s): sweep result differs from direct run\nsweep:  %s\ndirect: %s",
				i, points[i], aj, bj)
		}
		if w := res.Points[i].Worker; w != "local" {
			t.Errorf("point %d attributed to %q, want local", i, w)
		}
	}
}

func TestResultRenderAndPivot(t *testing.T) {
	res, err := fleet.RunLocal(context.Background(), sweep.Fig1Spec(), 4)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	for _, want := range []string{"sweep: 8 points", "meta_mpki geomeans", "per-axis geomeans", "libquantum"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render output missing %q:\n%s", want, out)
		}
	}
	if _, err := res.Pivot(sweep.AxisBenchmark, sweep.AxisMeta, "ipc"); err != nil {
		t.Errorf("Pivot(benchmark, meta, ipc): %v", err)
	}
	if _, err := res.Pivot(sweep.AxisBenchmark, sweep.AxisMeta, "bogus"); err == nil {
		t.Error("Pivot accepted an unknown metric")
	}
	if len(res.Geomeans) == 0 {
		t.Error("no per-axis geomeans aggregated")
	}
}

// TestGroupedSweepMatchesDirectRuns: on one slot each benchmark's
// points run as two groups, and every point must still equal its
// materialized config run alone (host timing aside).
func TestGroupedSweepMatchesDirectRuns(t *testing.T) {
	spec := sweep.Fig1Spec()
	spec.Axes.Policies = []string{"plru", "lru"}
	points, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if g := sweep.Groups(points, 1); len(g) != 4 {
		t.Fatalf("fig1 grid on one slot forms %d groups, want two per benchmark", len(g))
	}
	res, err := fleet.RunLocal(context.Background(), spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		cfg, err := sweep.Instantiate(p)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, b := *res.Points[i].Result, *direct
		a.Timing, b.Timing = sim.PhaseTiming{}, sim.PhaseTiming{}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("point %d (%s): grouped sweep result differs from a direct run", i, p)
		}
	}
}
