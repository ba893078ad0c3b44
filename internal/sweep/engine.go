package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/maps-sim/mapsim/internal/jobs"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/results"
	"github.com/maps-sim/mapsim/internal/sim"
)

// PointResult pairs a grid point with its simulation result.
type PointResult struct {
	Point
	// Result is the point's simulation output; treat it as shared and
	// immutable when Cached.
	Result *sim.Result `json:"result"`
	// Cached marks a point served from the results cache without
	// re-simulating.
	Cached bool `json:"cached,omitempty"`
	// Worker names the fleet worker that executed the point; empty for
	// cached points and for single-node sweeps run through Engine.
	Worker string `json:"worker,omitempty"`
}

// Cache is the result-store surface the engine dedupes through:
// tier-agnostic Get/Put keyed by content address. The persistent
// tiered store (internal/store, whose Get may consult disk and peers
// under ctx) and the MemCache adapter over a bare results.Cache both
// satisfy it.
type Cache interface {
	// Get returns the stored value for key; ctx bounds any remote
	// tier lookups.
	Get(ctx context.Context, key results.Key) (any, bool)
	// Put stores value under key.
	Put(key results.Key, value any)
}

// MemCache adapts a bare in-memory results.Cache to the Cache
// interface for callers with no persistent store.
type MemCache struct {
	// C is the wrapped cache.
	C *results.Cache
}

// Get looks key up in the wrapped cache; ctx is ignored (memory
// lookups never block).
func (m MemCache) Get(_ context.Context, key results.Key) (any, bool) { return m.C.Get(key) }

// Put stores value in the wrapped cache.
func (m MemCache) Put(key results.Key, value any) { m.C.Put(key, value) }

// Engine shards a sweep across a worker pool. Pool is required; the
// rest is optional.
type Engine struct {
	// Pool executes the points. The engine coordinates from its own
	// goroutines — never from inside a pool job, which could deadlock a
	// full pool against itself.
	Pool *jobs.Pool
	// Cache, when set, dedupes points against previously computed
	// results (by results.PointKeyFor) and stores fresh ones.
	Cache Cache
	// OnPoint, when set, observes every completed point — cached or
	// simulated — in completion order, from multiple goroutines (the
	// engine serializes the calls). Server progress streaming hangs off
	// this.
	OnPoint func(PointResult)
	// Parallelism bounds in-flight submissions (default: the pool's
	// worker count).
	Parallelism int
	// Timeout is the per-point deadline (0 = none); a run group's job
	// gets Timeout × its size.
	Timeout time.Duration
}

// Run expands the spec and executes the grid, failing fast: the first
// point error cancels every queued and in-flight sibling and is
// returned alone — victims of the cancellation never mask it. The
// returned Result orders points exactly as Expand did, whatever order
// they completed in.
func (e *Engine) Run(ctx context.Context, spec Spec) (*Result, error) {
	points, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res := &Result{
		Points: make([]PointResult, len(points)),
		Total:  len(points),
	}

	parallelism := e.Parallelism
	if parallelism <= 0 {
		parallelism = e.Pool.Stats().Workers
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel() // abandon the rest of the grid
	}
	deliver := func(pr PointResult) {
		mu.Lock()
		res.Points[pr.Index] = pr
		res.Done++
		if pr.Cached {
			res.Deduped++
		}
		cb := e.OnPoint
		if cb != nil {
			// Serialized under mu so observers see a consistent stream.
			cb(pr)
		}
		mu.Unlock()
	}

	// Serve every known point first; the cold rest run in groups
	// that share a front (Groups), each group one pool job.
	var cold []Point
	keys := make(map[int]results.Key)
	for _, p := range points {
		key, hit := e.lookup(ctx, spec, p)
		if hit != nil {
			deliver(PointResult{Point: p, Result: hit, Cached: true})
			continue
		}
		cold = append(cold, p)
		keys[p.Index] = key
	}
	for _, g := range Groups(cold, parallelism) {
		wg.Add(1)
		sem <- struct{}{}
		go func(g []Point) {
			defer wg.Done()
			defer func() { <-sem }()
			if ctx.Err() != nil {
				return // a sibling already failed; don't start
			}
			rs, err := RunGroup(ctx, e.Pool, g, e.Timeout)
			if err != nil {
				if ctx.Err() == nil {
					fail(fmt.Errorf("sweep: %s: %w", groupLabel(g), err))
				}
				return
			}
			for i, p := range g {
				if key := keys[p.Index]; e.Cache != nil && key != "" {
					e.Cache.Put(key, rs[i])
				}
				deliver(PointResult{Point: p, Result: rs[i]})
			}
		}(g)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.Wall = time.Since(start)
	res.Aggregate()
	return res, nil
}

// CacheNames maps a point's normalized policy/partition names to the
// form results.PointKeyFor wants: empty for the defaults, so default
// points share cache entries with plain run jobs. The fleet
// coordinator and the remote-worker adapter use the same mapping, so
// one grid point has one content address everywhere in the fleet.
func CacheNames(p Point) (string, string) {
	pol, part := p.Policy, p.Partition
	if pol == DefaultPolicy {
		pol = ""
	}
	if part == DefaultPartition {
		part = ""
	}
	return pol, part
}

// lookup computes the point's content address and consults the cache.
// It returns the key (for the post-run Put) and a non-nil result on a
// dedupe hit. A point whose config cannot be canonicalized sweeps
// uncached rather than failing — Expand already rejected the
// uncacheable base shapes, so this is belt and braces.
func (e *Engine) lookup(ctx context.Context, spec Spec, p Point) (results.Key, *sim.Result) {
	if e.Cache == nil {
		return "", nil
	}
	pol, part := CacheNames(p)
	key, err := results.PointKeyFor(p.Config, pol, part)
	if err != nil {
		return "", nil
	}
	if spec.NoCache {
		return key, nil
	}
	if v, ok := e.Cache.Get(ctx, key); ok {
		if r, ok := v.(*sim.Result); ok {
			return key, r
		}
	}
	return key, nil
}

// Instantiate materializes a point's runnable sim.Config: fresh
// replacement-policy and partition-scheme instances (they are
// stateful, so concurrent points must never share them) over a copied
// Meta the simulator can't alias back into the spec. Every executor —
// the local engine, the fleet's pool runner, and a worker daemon
// running a dispatched point — builds its config through this one
// path, which is what keeps fleet results bit-identical to local ones.
func Instantiate(p Point) (sim.Config, error) {
	cfg := p.Config
	if cfg.Meta != nil && (p.Policy != "" && p.Policy != DefaultPolicy ||
		p.Partition != "" && p.Partition != DefaultPartition) {
		mc := *cfg.Meta
		pol, err := NewPolicy(p.Policy)
		if err != nil {
			return sim.Config{}, err
		}
		part, err := NewPartition(p.Partition)
		if err != nil {
			return sim.Config{}, err
		}
		mc.Policy = pol
		mc.Partition = part
		cfg.Meta = &mc
	} else if cfg.Meta != nil {
		mc := *cfg.Meta // never let the simulator share the spec's Meta
		cfg.Meta = &mc
	}
	return cfg, nil
}

// MaxGroup caps a run group's members, so the back ends (engine,
// metadata cache, DRAM) alive at once stay bounded.
const MaxGroup = 16

// Groups partitions points into run groups: points whose configs
// share a front (sim.FrontOf) simulate it once, as one sim.RunGroup.
// The n points sharing a front split into near-equal groups of at
// most min(MaxGroup, ceil(n/slots)) members, where slots is the
// number of dispatch slots that will run them, so the groups still
// keep every slot busy. slots counts as at least two: a group reports
// nothing until all its members finish, so even a one-slot sweep
// completes a front in two steps and a restart or cancellation
// midway keeps half its work. Points without a front identity form
// groups of one. Groups are ordered by their first point, members by
// grid order. Every executor — the engine, the fleet coordinator,
// and the experiments — groups through this one rule.
func Groups(points []Point, slots int) [][]Point {
	slots = max(slots, 2)
	var fronts []sim.Front
	byFront := make(map[sim.Front][]Point)
	var groups [][]Point
	for _, p := range points {
		f, ok := sim.FrontOf(p.Config)
		if !ok {
			groups = append(groups, []Point{p})
			continue
		}
		if _, seen := byFront[f]; !seen {
			fronts = append(fronts, f)
		}
		byFront[f] = append(byFront[f], p)
	}
	for _, f := range fronts {
		pts := byFront[f]
		size := min(MaxGroup, (len(pts)+slots-1)/slots)
		n := (len(pts) + size - 1) / size
		for i := 0; i < n; i++ {
			// Near-equal split: group i takes points [i*len/n, (i+1)*len/n).
			groups = append(groups, pts[i*len(pts)/n:(i+1)*len(pts)/n])
		}
	}
	sort.SliceStable(groups, func(i, k int) bool { return groups[i][0].Index < groups[k][0].Index })
	return groups
}

// groupLabel names a run group in errors by its first point.
func groupLabel(g []Point) string {
	label := fmt.Sprintf("point %d (%s)", g[0].Index, g[0])
	if len(g) > 1 {
		label += fmt.Sprintf(" and %d more in its run group", len(g)-1)
	}
	return label
}

// RunGroup simulates points as one run group on pool: each point
// instantiated through Instantiate, then one sim.RunGroup as a single
// pool job (a batch of len(points) in the pool's counters, which
// therefore still count simulated points). timeout is per point, so the job's deadline is timeout ×
// len(points) (0 = none). Every executor that simulates sweep points
// locally — the engine and the fleet's pool runner — runs them
// through here, which keeps fleet results bit-identical to local
// ones.
func RunGroup(ctx context.Context, pool *jobs.Pool, points []Point, timeout time.Duration) ([]*sim.Result, error) {
	out, err := pool.RunBatch(ctx, len(points), func(jctx context.Context) (any, error) {
		cfgs := make([]sim.Config, len(points))
		for i, p := range points {
			cfg, err := Instantiate(p)
			if err != nil {
				return nil, err
			}
			cfgs[i] = cfg
		}
		return sim.RunGroup(jctx, cfgs)
	}, timeout*time.Duration(len(points)))
	if err != nil {
		return nil, err
	}
	rs, ok := out.([]*sim.Result)
	if !ok || len(rs) != len(points) {
		return nil, fmt.Errorf("sweep: group job returned %T, want %d results", out, len(points))
	}
	return rs, nil
}

// Run is the one-shot convenience: a transient pool sized to
// parallelism (default NumCPU), no cache, no observer.
func Run(ctx context.Context, spec Spec, parallelism int) (*Result, error) {
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	pool := jobs.New(parallelism, parallelism, jobs.WithContextWrap(func(ctx context.Context) context.Context {
		// Points pipeline only into cores the pool's own fan-out
		// leaves unclaimed.
		return sim.WithConcurrency(ctx, parallelism)
	}))
	defer pool.Shutdown(context.Background())
	eng := &Engine{Pool: pool}
	return eng.Run(ctx, spec)
}

// contentLabel names a point's effective content policy even when the
// axis was absent (falling back to the materialized config).
func contentLabel(p Point) string {
	if p.Content != "" {
		return p.Content
	}
	if p.Config.Meta != nil {
		return p.Config.Meta.Content.String()
	}
	return metacache.AllTypes.String()
}
