// Package fleet is the one sweep executor: every sweep — `maps
// sweep`, the figure experiments through RunLocal, and every mapsd
// sweep — runs through a Coordinator. The Coordinator owns the
// dispatch loop: it dedupes points through the shared result cache
// before issuing any work, bounds in-flight points per worker, steals
// work from slow workers, excludes workers whose health probe fails,
// re-issues straggling points past a deadline, and resolves duplicate
// completions (the price of stealing) exactly once. Cold points that
// share a front go out in run groups to lanes that can run them
// (GroupRunner), each group one simulation pass. Both the local jobs
// pool (PoolRunner) and remote daemons (mapsim.NewWorkerRunner, in
// the root package) plug in through the Runner interface, so a sweep
// gives bit-identical results whichever workers run its points.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"github.com/maps-sim/mapsim/internal/faults"
	"github.com/maps-sim/mapsim/internal/results"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/sweep"
)

// Fault points the coordinator exposes to the chaos suite: dispatch
// fires just before a point is handed to a worker (an injected error
// is treated as a worker failure, so the point re-issues elsewhere);
// health fires inside every health probe (an injected error makes the
// probed worker look unhealthy).
const (
	FaultDispatch = "fleet.dispatch"
	FaultHealth   = "fleet.health"
)

// Runner executes one grid point somewhere — on the local jobs pool
// or on a remote daemon. Implementations must be safe for concurrent
// Run calls up to the Worker's MaxInflight bound.
type Runner interface {
	// Name identifies the worker in point attribution, metrics, and
	// logs; names must be unique within one Coordinator.
	Name() string
	// Run executes the point and returns its result; noCache forwards
	// the sweep's forced-rerun flag (a remote worker must then skip
	// its own result store's lookup). Infrastructure errors (transport
	// failures, worker overload, worker death) must be wrapped with
	// WorkerFailure so the coordinator re-issues the point elsewhere;
	// plain errors mean the simulation itself failed and fail the
	// whole sweep fast.
	Run(ctx context.Context, p sweep.Point, timeout time.Duration, noCache bool) (*sim.Result, error)
	// Healthy probes the worker (e.g. GET /readyz); an unhealthy
	// worker is excluded from dispatch until a later probe passes.
	Healthy(ctx context.Context) bool
}

// GroupRunner is a Runner that can also simulate a run group —
// points sharing a front (sweep.Groups) — as one job. A slot on such
// a lane claims a whole group; every other lane claims groups of one
// through Run.
type GroupRunner interface {
	Runner
	// RunGroup executes points as one group and returns their results
	// in order. The group succeeds or fails as a unit, under Run's
	// error conventions; timeout is the per-point deadline. A group
	// lane simulates every point it is given (the coordinator owns
	// cache lookups), so unlike Run it takes no noCache.
	RunGroup(ctx context.Context, points []sweep.Point, timeout time.Duration) ([]*sim.Result, error)
}

// Cache is the result-store surface the coordinator dedupes through:
// tier-agnostic Get/Put keyed by content address. The persistent
// tiered store (internal/store, whose Get may consult disk and peers
// under ctx) satisfies it.
type Cache interface {
	// Get returns the stored value for key; ctx bounds any remote
	// tier lookups.
	Get(ctx context.Context, key results.Key) (any, bool)
	// Put stores value under key.
	Put(key results.Key, value any)
}

// Worker pairs a Runner with its dispatch bound.
type Worker struct {
	// Runner executes points.
	Runner Runner
	// MaxInflight bounds concurrently dispatched points on this
	// worker (<= 0 means 1).
	MaxInflight int
}

// workerFailure marks an infrastructure error — the worker, not the
// simulation, failed — so the coordinator re-issues instead of
// failing the sweep.
type workerFailure struct{ err error }

func (e *workerFailure) Error() string { return e.err.Error() }
func (e *workerFailure) Unwrap() error { return e.err }

// WorkerFailure wraps err as a worker failure: the coordinator will
// re-issue the point to another worker (up to the attempt cap)
// instead of failing the sweep. A nil err returns nil.
func WorkerFailure(err error) error {
	if err == nil {
		return nil
	}
	return &workerFailure{err: err}
}

// IsWorkerFailure reports whether any error in err's chain was marked
// by WorkerFailure.
func IsWorkerFailure(err error) bool {
	var wf *workerFailure
	return errors.As(err, &wf)
}

// Coordinator fans a sweep's grid points out over Workers. Configure
// the fields before the first Run; a Coordinator is safe for
// concurrent Run calls (each run keeps private state), and Metrics
// accumulates across runs.
type Coordinator struct {
	// Workers is the fleet; at least one is required.
	Workers []Worker
	// Cache, when set, dedupes points against previously computed
	// results (by sweep.PointKey) and stores fresh ones —
	// the fleet's exactly-once layer.
	Cache Cache
	// Completed pre-marks grid indices already finished by an earlier
	// run of the same sweep (journal recovery): the pre-pass consults
	// Cache for them even when the spec sets NoCache, so a resumed
	// sweep re-serves them from the store instead of re-simulating. A
	// pre-marked point the store no longer holds falls back to a
	// normal dispatch. Set this only on a Coordinator built for one
	// recovered sweep.
	Completed map[int]bool
	// Keys, when set, holds every grid point's sweep.PointKey key in
	// grid order ("" for a point that cannot be keyed), so the
	// pre-pass keys nothing itself. Set this only on a Coordinator
	// built for one sweep.
	Keys []results.Key
	// Hits holds the Cache's answers for a grid-order prefix of the
	// points that the caller has already looked up, nil for a miss;
	// the pre-pass looks none of them up again. Like Keys, it belongs
	// to one sweep.
	Hits []*sim.Result
	// OnPoint, when set, observes every completed point in completion
	// order; calls are serialized.
	OnPoint func(sweep.PointResult)
	// Timeout is the per-point deadline passed to Runner.Run and
	// GroupRunner.RunGroup (0 = none).
	Timeout time.Duration
	// StragglerAfter re-issues a point still in flight after this long
	// to another worker (0 disables straggler re-issue; rescue of
	// stranded points stays on).
	StragglerAfter time.Duration
	// HealthBackoff is how long an unhealthy worker sits out before
	// its next probe (default 250ms).
	HealthBackoff time.Duration
	// MaxAttempts caps issues per point before a worker failure
	// becomes fatal (default max(3, 2×len(Workers))).
	MaxAttempts int
	// Metrics, when set, accumulates per-worker dispatch counters.
	Metrics *Metrics
	// Logger, when set, records steals, re-issues, worker failures,
	// and health transitions.
	Logger *slog.Logger
}

// task is one grid point's dispatch state, guarded by runState.mu.
type task struct {
	point      sweep.Point
	key        results.Key
	group      []*task // the point's run group (sweep.Groups), itself included
	done       bool
	attempts   int       // times issued to a worker
	inflight   int       // workers currently running it (>1 after a steal)
	queued     int       // copies sitting in the queue
	skip       int       // queued copies already claimed with a group, discarded when pulled
	pending    int       // copies picked up but not yet claimed (health probe in progress)
	lastIssue  time.Time // most recent dispatch, for straggler detection
	lastSize   int       // members dispatched with it then, which scales its straggler deadline
	lastWorker string    // most recent worker, for re-issue attribution
}

// live counts t's queued copies still waiting to be claimed.
func (t *task) live() int { return t.queued - t.skip }

// runState is one Run's private coordination state.
type runState struct {
	ctx    context.Context
	cancel context.CancelFunc

	mu          sync.Mutex
	tasks       []*task
	queue       chan *task
	res         *sweep.Result
	onPoint     func(sweep.PointResult)
	remaining   int
	maxAttempts int
	noCache     bool
	firstErr    error
	finished    bool
	healthy     map[string]bool
}

// fail records the sweep's first error and cancels the rest; callers
// hold mu.
func (r *runState) fail(err error) {
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.cancel()
}

// deliver records a completed point and notifies the observer;
// callers hold mu, which serializes the observer stream.
func (r *runState) deliver(pr sweep.PointResult) {
	r.res.Points[pr.Index] = pr
	r.res.Done++
	if pr.Cached {
		r.res.Deduped++
	}
	if r.onPoint != nil {
		r.onPoint(pr)
	}
}

// resend queues another copy of t without blocking; callers hold mu.
// A full queue is not fatal — the monitor's rescue pass retries.
func (r *runState) resend(t *task) {
	if t.done {
		return
	}
	select {
	case r.queue <- t:
		t.queued++
	default:
	}
}

// Run expands the spec and executes the grid across the fleet,
// failing fast on simulation errors and re-issuing points whose
// worker failed. The returned Result orders points exactly as Expand
// did, whatever order they completed in.
func (c *Coordinator) Run(ctx context.Context, spec sweep.Spec) (*sweep.Result, error) {
	if len(c.Workers) == 0 {
		return nil, errors.New("fleet: no workers registered")
	}
	points, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res := &sweep.Result{
		Points: make([]sweep.PointResult, len(points)),
		Total:  len(points),
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &runState{
		ctx:         rctx,
		cancel:      cancel,
		res:         res,
		onPoint:     c.OnPoint,
		maxAttempts: c.maxAttempts(),
		noCache:     spec.NoCache,
		healthy:     make(map[string]bool),
	}

	// Cache pre-pass: serve every already-known point before issuing
	// any work.
	var tasks []*task
	for _, p := range points {
		key, hit := c.lookup(rctx, spec, p, c.Completed[p.Index])
		if hit != nil {
			r.mu.Lock()
			r.deliver(sweep.PointResult{Point: p, Result: hit, Cached: true})
			r.mu.Unlock()
			continue
		}
		tasks = append(tasks, &task{point: p, key: key})
	}
	r.tasks = tasks
	r.remaining = len(tasks)
	if len(tasks) == 0 {
		res.Wall = time.Since(start)
		res.Aggregate()
		return res, nil
	}

	// Cold points sharing a front form run groups sized to the
	// fleet's dispatch slots; a group-capable lane claims a group at
	// once.
	slots := 0
	for _, w := range c.Workers {
		slots += max(w.MaxInflight, 1)
	}
	byIndex := make(map[int]*task, len(tasks))
	cold := make([]sweep.Point, len(tasks))
	for i, t := range tasks {
		byIndex[t.point.Index] = t
		cold[i] = t.point
	}
	groups := sweep.Groups(cold, slots)
	for _, g := range groups {
		group := make([]*task, len(g))
		for i, p := range g {
			group[i] = byIndex[p.Index]
		}
		for _, t := range group {
			t.group = group
		}
	}

	// Queue capacity covers every possible copy: each task holds at
	// most maxAttempts+1 live queued copies at once (unhealthy
	// hand-backs are net-zero) plus at most maxAttempts copies left
	// behind by group claims, so sends only ever block on a bug.
	r.queue = make(chan *task, len(tasks)*(2*r.maxAttempts+1)+len(c.Workers))
	// Queue the groups round-robin, one point of each in turn: there
	// are about as many groups as slots, so the slots' first pulls
	// land in different groups and each claims one whole.
	for i := 0; i < sweep.MaxGroup; i++ {
		for _, g := range groups {
			if i < len(g) {
				t := byIndex[g[i].Index]
				r.queue <- t
				t.queued = 1
			}
		}
	}

	var wg sync.WaitGroup
	for _, w := range c.Workers {
		n := w.MaxInflight
		if n <= 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(w Worker) {
				defer wg.Done()
				c.slot(rctx, r, w)
			}(w)
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.monitor(rctx, r)
	}()
	wg.Wait()

	r.mu.Lock()
	firstErr := r.firstErr
	finished := r.finished
	r.mu.Unlock()
	if firstErr != nil {
		return nil, firstErr
	}
	if !finished {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, errors.New("fleet: sweep stopped before completion")
	}
	res.Wall = time.Since(start)
	res.Aggregate()
	return res, nil
}

// lookup computes the point's content address and consults the cache.
// It returns the key (for the post-run Put) and a non-nil result on a
// dedupe hit. The key is sweep.PointKey's, so sweep points and plain
// run jobs dedupe against each other; a point whose config
// cannot be canonicalized sweeps uncached. Keys and Hits supply what
// the caller already computed. force consults the cache even under
// NoCache — the recovered-point path, where the store is the completed
// point's only surviving copy.
func (c *Coordinator) lookup(ctx context.Context, spec sweep.Spec, p sweep.Point, force bool) (results.Key, *sim.Result) {
	if c.Cache == nil {
		return "", nil
	}
	var key results.Key
	if c.Keys != nil {
		key = c.Keys[p.Index]
	} else {
		key, _ = sweep.PointKey(p)
	}
	if key == "" {
		return "", nil
	}
	if p.Index < len(c.Hits) {
		return key, c.Hits[p.Index]
	}
	if spec.NoCache && !force {
		return key, nil
	}
	if v, ok := c.Cache.Get(ctx, key); ok {
		if r, ok := v.(*sim.Result); ok {
			return key, r
		}
	}
	return key, nil
}

// slot is one in-flight dispatch lane on worker w: pull a point,
// gate on health, claim it (with its run group's queued points on a
// GroupRunner lane), run the claim, hand each outcome to complete.
func (c *Coordinator) slot(rctx context.Context, r *runState, w Worker) {
	name := w.Runner.Name()
	gr, grouping := w.Runner.(GroupRunner)
	for {
		select {
		case <-rctx.Done():
			return
		case t := <-r.queue:
			r.mu.Lock()
			t.queued--
			if t.skip > 0 {
				// A copy left behind when a group claimed t.
				t.skip--
				r.mu.Unlock()
				continue
			}
			if t.done || r.firstErr != nil {
				r.mu.Unlock()
				continue
			}
			// pending marks the probe window: the point is neither
			// queued nor in flight, but it is NOT stranded — without
			// this, a monitor tick during a slow probe would resend it
			// and the sweep would simulate it twice.
			t.pending++
			r.mu.Unlock()

			if !c.probe(r, w) {
				// Hand the point back and sit out a backoff.
				r.mu.Lock()
				t.pending--
				r.resend(t)
				r.mu.Unlock()
				select {
				case <-rctx.Done():
					return
				case <-time.After(c.healthBackoff()):
				}
				continue
			}

			r.mu.Lock()
			t.pending--
			if t.done || r.firstErr != nil {
				r.mu.Unlock()
				continue
			}
			claim, steals := r.claim(t, name, grouping)
			r.mu.Unlock()
			for i, ct := range claim {
				c.Metrics.dispatch(name, steals[i])
				if steals[i] && c.Logger != nil {
					c.Logger.Debug("fleet point stolen",
						"worker", name, "point", ct.point.Index)
				}
			}

			var res []*sim.Result
			err := faults.P(FaultDispatch).Hit()
			switch {
			case err != nil:
				err = WorkerFailure(fmt.Errorf("fleet: dispatch to %s: %w", name, err))
			case len(claim) == 1:
				var one *sim.Result
				one, err = w.Runner.Run(rctx, t.point, c.Timeout, r.noCache)
				res = []*sim.Result{one}
			default:
				points := make([]sweep.Point, len(claim))
				for i, ct := range claim {
					points[i] = ct.point
				}
				res, err = gr.RunGroup(rctx, points, c.Timeout)
				if err == nil && len(res) != len(claim) {
					err = fmt.Errorf("fleet: %s returned %d results for a %d-point group", name, len(res), len(claim))
				}
			}
			for i, ct := range claim {
				var one *sim.Result
				if err == nil {
					one = res[i]
				}
				c.complete(r, ct, name, one, err)
			}
		}
	}
}

// claim issues t to worker, and with group set also every other
// point of t's run group that has a live queued copy (whose copy the
// claim consumes). It returns the claimed tasks, t first, with
// whether each was a steal (already in flight elsewhere); callers
// hold mu.
func (r *runState) claim(t *task, worker string, group bool) ([]*task, []bool) {
	claim := []*task{t}
	if group {
		for _, s := range t.group {
			if s != t && !s.done && s.live() > 0 {
				s.skip++
				claim = append(claim, s)
			}
		}
	}
	steals := make([]bool, len(claim))
	now := time.Now()
	for i, ct := range claim {
		steals[i] = ct.inflight > 0
		ct.inflight++
		ct.attempts++
		ct.lastIssue = now
		ct.lastSize = len(claim)
		ct.lastWorker = worker
	}
	return claim, steals
}

// probe checks w's health (through the fleet.health fault point) and
// records healthy→unhealthy transitions.
func (c *Coordinator) probe(r *runState, w Worker) bool {
	name := w.Runner.Name()
	ok := faults.P(FaultHealth).Hit() == nil && w.Runner.Healthy(r.ctx)
	r.mu.Lock()
	was, seen := r.healthy[name]
	r.healthy[name] = ok
	r.mu.Unlock()
	if !ok && (was || !seen) {
		c.Metrics.unhealthy(name)
		if c.Logger != nil {
			c.Logger.Warn("fleet worker unhealthy", "worker", name)
		}
	}
	return ok
}

// complete resolves one dispatch outcome exactly once: the first
// successful completion wins, duplicates from steals are discarded,
// worker failures re-issue up to the attempt cap, and simulation
// errors fail the sweep fast.
func (c *Coordinator) complete(r *runState, t *task, worker string, res *sim.Result, err error) {
	c.Metrics.finish(worker)
	r.mu.Lock()
	defer r.mu.Unlock()
	t.inflight--
	if t.done || r.firstErr != nil {
		return // duplicate from a steal, or the sweep already failed
	}
	if err != nil {
		if r.ctx.Err() != nil {
			return // cancellation victim, not a cause
		}
		if IsWorkerFailure(err) {
			c.Metrics.failure(worker)
			if c.Logger != nil {
				c.Logger.Warn("fleet worker failed point",
					"worker", worker, "point", t.point.Index,
					"attempt", t.attempts, "err", err)
			}
			if t.attempts >= r.maxAttempts {
				r.fail(fmt.Errorf("fleet: point %d (%s): gave up after %d attempts: %w",
					t.point.Index, t.point, t.attempts, err))
				return
			}
			r.resend(t)
			return
		}
		r.fail(fmt.Errorf("sweep: point %d (%s) on %s: %w", t.point.Index, t.point, worker, err))
		return
	}
	t.done = true
	if c.Cache != nil && t.key != "" {
		c.Cache.Put(t.key, res)
	}
	r.deliver(sweep.PointResult{Point: t.point, Result: res, Worker: worker})
	c.Metrics.donePoint(worker)
	r.remaining--
	if r.remaining == 0 {
		r.finished = true
		r.cancel()
	}
}

// monitor is the straggler/rescue loop: re-issue points in flight
// past StragglerAfter (times the size of the group they went out
// with), and resend any point that is neither queued
// nor in flight (a resend lost to a momentarily full queue).
func (c *Coordinator) monitor(rctx context.Context, r *runState) {
	tick := 50 * time.Millisecond
	if c.StragglerAfter > 0 {
		if t := c.StragglerAfter / 4; t < tick {
			tick = t
			if tick < time.Millisecond {
				tick = time.Millisecond
			}
		}
	}
	tk := time.NewTicker(tick)
	defer tk.Stop()
	for {
		select {
		case <-rctx.Done():
			return
		case <-tk.C:
		}
		now := time.Now()
		r.mu.Lock()
		for _, t := range r.tasks {
			if t.done {
				continue
			}
			if t.live() == 0 && t.inflight == 0 && t.pending == 0 {
				r.resend(t) // rescue a stranded point
				continue
			}
			// A group's deadline scales with its size, like its
			// timeout: k points in one job take about k times as long.
			if c.StragglerAfter > 0 && t.live() == 0 && t.pending == 0 && t.inflight > 0 &&
				t.attempts < r.maxAttempts && now.Sub(t.lastIssue) > c.StragglerAfter*time.Duration(t.lastSize) {
				r.resend(t)
				if t.live() > 0 {
					c.Metrics.reissue(t.lastWorker)
					if c.Logger != nil {
						c.Logger.Info("fleet straggler re-issued",
							"worker", t.lastWorker, "point", t.point.Index,
							"inflight", now.Sub(t.lastIssue))
					}
					t.lastIssue = now
				}
			}
		}
		r.mu.Unlock()
	}
}

// maxAttempts resolves the per-point attempt cap.
func (c *Coordinator) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	n := 2 * len(c.Workers)
	if n < 3 {
		n = 3
	}
	return n
}

// healthBackoff resolves the unhealthy-worker sit-out.
func (c *Coordinator) healthBackoff() time.Duration {
	if c.HealthBackoff > 0 {
		return c.HealthBackoff
	}
	return 250 * time.Millisecond
}
