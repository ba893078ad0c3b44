package sweep

import (
	"context"
	"fmt"
	"runtime"
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
	// Timeout is the per-point job deadline (0 = none).
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

	for _, p := range points {
		key, hit := e.lookup(ctx, spec, p)
		if hit != nil {
			deliver(PointResult{Point: p, Result: hit, Cached: true})
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(p Point, key results.Key) {
			defer wg.Done()
			defer func() { <-sem }()
			if ctx.Err() != nil {
				return // a sibling already failed; don't start
			}
			r, err := e.runPoint(ctx, p)
			if err != nil {
				if ctx.Err() == nil {
					fail(fmt.Errorf("sweep: point %d (%s): %w", p.Index, p, err))
				}
				return
			}
			if e.Cache != nil && key != "" {
				e.Cache.Put(key, r)
			}
			deliver(PointResult{Point: p, Result: r})
		}(p, key)
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

// runPoint executes one point as a pool job via Instantiate.
func (e *Engine) runPoint(ctx context.Context, p Point) (*sim.Result, error) {
	out, err := e.Pool.Run(ctx, func(jctx context.Context) (any, error) {
		cfg, err := Instantiate(p)
		if err != nil {
			return nil, err
		}
		return sim.RunContext(jctx, cfg)
	}, e.Timeout)
	if err != nil {
		return nil, err
	}
	r, ok := out.(*sim.Result)
	if !ok {
		return nil, fmt.Errorf("sweep: point job returned %T, want *sim.Result", out)
	}
	return r, nil
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
