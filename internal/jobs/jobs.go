// Package jobs is mapsd's admission layer: a bounded queue feeding a
// fixed worker pool, with per-job cancellation, optional deadlines,
// and a graceful drain for shutdown. Simulations are CPU-bound and
// long (seconds to minutes), so the pool deliberately rejects work
// once the queue is full — back-pressure at submit time beats an
// unbounded backlog the client will time out on anyway.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sync"
	"time"

	"github.com/maps-sim/mapsim/internal/faults"
	"github.com/maps-sim/mapsim/internal/obs"
)

// faultRun is the injection point armed (as "jobs.run") to make job
// executions fail, stall, or panic. It is hit inside the recovery
// envelope, so an injected panic exercises the same isolation path an
// organic one would.
var faultRun = faults.P("jobs.run")

// State is a job's lifecycle position. Transitions only move
// rightward: queued → running → {done, failed, canceled}; a queued
// job can also jump straight to canceled.
type State string

// Job states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether a job in this state can still change.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Fn is the unit of work. It must honour ctx: mapsd passes it down
// to sim.RunContext so cancellation reaches the simulation loop. The
// context carries the job's ID, recoverable via IDFromContext.
type Fn func(ctx context.Context) (any, error)

// idKey is the context key carrying the running job's ID.
type idKey struct{}

// IDFromContext returns the ID of the job this context belongs to,
// or "" outside a pool-run Fn. It lets the work function scope its
// logging and metrics to the job without threading the ID by hand.
func IDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(idKey{}).(string)
	return id
}

// Errors returned by Submit.
var (
	ErrQueueFull = errors.New("jobs: queue full")
	ErrShutdown  = errors.New("jobs: pool is shut down")
	// ErrDraining rejects submissions once Shutdown has begun: the pool
	// is completing queued and running work but accepts nothing new. It
	// wraps ErrShutdown, so errors.Is(err, ErrShutdown) keeps matching.
	ErrDraining = fmt.Errorf("jobs: pool is draining: %w", ErrShutdown)
)

// ErrPanic marks a job whose function panicked. The worker recovers,
// records the stack, and fails the job with an error wrapping this
// sentinel; the panic never escapes the pool.
var ErrPanic = errors.New("jobs: job panicked")

// transientError marks an error as retryable; see Transient.
type transientError struct{ err error }

// Error delegates to the wrapped error.
func (e *transientError) Error() string { return e.err.Error() }

// Unwrap exposes the wrapped error to errors.Is/As.
func (e *transientError) Unwrap() error { return e.err }

// Transient marks the error retryable.
func (e *transientError) Transient() bool { return true }

// Transient wraps err so IsTransient reports true: a job function
// returns Transient(err) for failures worth retrying (a flaky
// dependency, an injected fault) as opposed to deterministic ones (a
// bad config would fail identically every attempt). A nil err stays
// nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err — anywhere in its wrap chain —
// carries a `Transient() bool` method returning true. Both
// jobs.Transient wrappers and faults.InjectedError satisfy it.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// ErrNotFound is returned for unknown job IDs.
var ErrNotFound = errors.New("jobs: no such job")

// Snapshot is an immutable copy of a job's externally visible state.
type Snapshot struct {
	ID       string    `json:"id"`
	State    State     `json:"state"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
	// Err is the failure message (failed/canceled states).
	Err string `json:"error,omitempty"`
	// Result is the job's output once done. It is shared, not copied;
	// treat it as immutable.
	Result any `json:"-"`
}

// job is the internal mutable record.
type job struct {
	snap    Snapshot
	fn      Fn
	timeout time.Duration
	cancel  context.CancelFunc // non-nil once running; also set for queued cancellation
	doneCh  chan struct{}      // closed on reaching a terminal state
	count   uint64             // simulations the job performs (see RunBatch)
}

// Stats counts pool activity. Queued/Running are current populations
// of jobs; the rest are cumulative. Submitted, Completed, Failed, and
// Canceled count simulations: a batch job (RunBatch) counts as its
// size.
type Stats struct {
	Workers   int    `json:"workers"`
	QueueCap  int    `json:"queue_capacity"`
	Queued    int    `json:"queued"`
	Running   int    `json:"running"`
	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Canceled  uint64 `json:"canceled"`
	Rejected  uint64 `json:"rejected"`
	// Panics counts job functions that panicked (each attempt of a
	// retried job counts once). The worker survives every one.
	Panics uint64 `json:"panics"`
	// Retries counts re-executions of jobs whose function returned a
	// transient error with retry budget remaining.
	Retries uint64 `json:"retries"`
}

// Pool runs jobs on a fixed set of workers.
type Pool struct {
	mu      sync.Mutex
	jobs    map[string]*job
	queue   chan *job
	seq     uint64
	closed  bool
	stats   Stats
	wg      sync.WaitGroup // workers
	baseCtx context.Context
	stopAll context.CancelFunc
	log     *slog.Logger

	// Retry policy for transient job failures (see WithRetry).
	maxRetries int
	retryBase  time.Duration
	ctxWrap    func(context.Context) context.Context
}

// Option configures a Pool at construction time.
type Option func(*Pool)

// WithLogger makes the pool emit one structured event per job
// lifecycle transition (enqueued → started → done/failed/canceled,
// each carrying the job ID and current queue depth) plus drain
// events. Without it the pool is silent.
func WithLogger(l *slog.Logger) Option {
	return func(p *Pool) {
		if l != nil {
			p.log = l
		}
	}
}

// WithContextWrap installs a hook applied to every job's context just
// before the job function runs. The server and the sweep engine use
// it to stamp the pool's worker count into job contexts
// (sim.WithConcurrency), so a run pipelines its stages only into the
// CPU budget the pool has not already claimed. A nil wrap is
// ignored; only one wrap is kept (last option wins).
func WithContextWrap(wrap func(context.Context) context.Context) Option {
	return func(p *Pool) {
		if wrap != nil {
			p.ctxWrap = wrap
		}
	}
}

// WithRetry sets the retry policy for jobs whose function fails with
// a transient error (IsTransient): up to maxRetries re-executions with
// exponential backoff starting at base (doubling per attempt). A
// negative maxRetries disables retries; base ≤ 0 keeps the default.
// Without this option the pool retries twice starting at 50ms.
func WithRetry(maxRetries int, base time.Duration) Option {
	return func(p *Pool) {
		if maxRetries < 0 {
			maxRetries = 0
		}
		p.maxRetries = maxRetries
		if base > 0 {
			p.retryBase = base
		}
	}
}

// New starts a pool with the given worker count and queue depth
// (both clamped to ≥ 1).
func New(workers, depth int, opts ...Option) *Pool {
	if workers < 1 {
		workers = 1
	}
	if depth < 1 {
		depth = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{
		jobs:       make(map[string]*job),
		queue:      make(chan *job, depth),
		baseCtx:    ctx,
		stopAll:    cancel,
		log:        obs.Nop(),
		maxRetries: 2,
		retryBase:  50 * time.Millisecond,
	}
	for _, o := range opts {
		o(p)
	}
	p.stats.Workers = workers
	p.stats.QueueCap = depth
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Submit enqueues fn, returning the new job's ID. A zero timeout
// means no per-job deadline. Returns ErrQueueFull when the queue is
// at capacity and ErrDraining once Shutdown has begun. The drain
// check and the enqueue happen under one lock, so a submission can
// never race into a closing queue.
func (p *Pool) Submit(fn Fn, timeout time.Duration) (string, error) {
	return p.submit(fn, timeout, 1)
}

// submit enqueues fn as a job performing count simulations.
func (p *Pool) submit(fn Fn, timeout time.Duration, count uint64) (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return "", ErrDraining
	}
	p.seq++
	j := &job{
		snap: Snapshot{
			ID:      fmt.Sprintf("j-%08d", p.seq),
			State:   StateQueued,
			Created: time.Now(),
		},
		fn:      fn,
		timeout: timeout,
		doneCh:  make(chan struct{}),
		count:   count,
	}
	select {
	case p.queue <- j:
	default:
		p.seq-- // ID was never exposed; reuse it
		p.stats.Rejected++
		p.log.Warn("job rejected", "reason", "queue full", "queue_depth", p.stats.Queued)
		return "", ErrQueueFull
	}
	p.jobs[j.snap.ID] = j
	p.stats.Submitted += count
	p.stats.Queued++
	p.log.Info("job enqueued", "job_id", j.snap.ID, "queue_depth", p.stats.Queued)
	return j.snap.ID, nil
}

// Complete is a convenience for cache hits: it registers a job that
// is already done with the given result, so clients see one uniform
// job lifecycle whether or not the simulator actually ran.
func (p *Pool) Complete(result any) (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return "", ErrDraining
	}
	p.seq++
	now := time.Now()
	j := &job{
		snap: Snapshot{
			ID:       fmt.Sprintf("j-%08d", p.seq),
			State:    StateDone,
			Created:  now,
			Started:  now,
			Finished: now,
			Result:   result,
		},
		doneCh: make(chan struct{}),
		count:  1,
	}
	close(j.doneCh)
	p.jobs[j.snap.ID] = j
	p.stats.Submitted++
	p.stats.Completed++
	p.log.Info("job born done", "job_id", j.snap.ID)
	return j.snap.ID, nil
}

// Get returns a snapshot of the job.
func (p *Pool) Get(id string) (Snapshot, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	return j.snap, nil
}

// Cancel stops a queued or running job. Cancelling a queued job is
// immediate; a running job stops at its next cancellation check.
// Cancelling a terminal job is a no-op (returns nil).
func (p *Pool) Cancel(id string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	if !ok {
		return ErrNotFound
	}
	switch j.snap.State {
	case StateQueued:
		p.finishLocked(j, StateCanceled, nil, context.Canceled)
	case StateRunning:
		j.cancel() // worker observes ctx and finishes the job
	}
	return nil
}

// Draining reports whether Shutdown has begun: the pool still
// finishes queued and running jobs but rejects new submissions.
// Readiness probes use it to take a draining instance out of rotation.
func (p *Pool) Draining() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// Wait blocks until the job reaches a terminal state or ctx is done,
// then returns the final snapshot.
func (p *Pool) Wait(ctx context.Context, id string) (Snapshot, error) {
	p.mu.Lock()
	j, ok := p.jobs[id]
	p.mu.Unlock()
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	select {
	case <-j.doneCh:
		return p.Get(id)
	case <-ctx.Done():
		return Snapshot{}, ctx.Err()
	}
}

// Run submits fn and blocks until it finishes, returning its result.
// Unlike Submit it absorbs back-pressure: when the queue is full it
// waits and retries instead of returning ErrQueueFull, so batch
// drivers (the sweep engine) can push an arbitrarily large grid
// through a bounded queue. Cancelling ctx cancels the job — queued or
// running — and returns the context error; a failed job returns its
// error with a nil result.
func (p *Pool) Run(ctx context.Context, fn Fn, timeout time.Duration) (any, error) {
	return p.RunBatch(ctx, 1, fn, timeout)
}

// RunBatch is Run for a job that performs n simulations at once (a
// sweep's run group): it takes one queue slot and one worker, but
// counts n in the Submitted, Completed, Failed, and Canceled stats.
func (p *Pool) RunBatch(ctx context.Context, n int, fn Fn, timeout time.Duration) (any, error) {
	var id string
	for backoff := time.Millisecond; ; {
		var err error
		id, err = p.submit(fn, timeout, uint64(max(n, 1)))
		if err == nil {
			break
		}
		if !errors.Is(err, ErrQueueFull) {
			return nil, err
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if backoff < 50*time.Millisecond {
			backoff *= 2
		}
	}
	snap, err := p.Wait(ctx, id)
	if err != nil {
		// ctx died while waiting; reap the orphaned job.
		p.Cancel(id)
		return nil, err
	}
	switch snap.State {
	case StateDone:
		return snap.Result, nil
	case StateCanceled:
		if snap.Err != "" {
			return nil, fmt.Errorf("jobs: %s canceled: %s", id, snap.Err)
		}
		return nil, context.Canceled
	default:
		return nil, fmt.Errorf("jobs: %s failed: %s", id, snap.Err)
	}
}

// Shutdown stops intake and drains: queued and running jobs run to
// completion. If ctx expires first, everything still in flight is
// cancelled and Shutdown returns ctx.Err() after the workers exit.
func (p *Pool) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.queue) // workers drain the remaining queue, then exit
	p.log.Info("pool draining", "queued", p.stats.Queued, "running", p.stats.Running)
	p.mu.Unlock()

	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		p.log.Info("pool drained")
		return nil
	case <-ctx.Done():
		p.stopAll() // cancel every in-flight job
		<-done
		p.log.Warn("pool drain timed out; in-flight jobs canceled")
		return ctx.Err()
	}
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for j := range p.queue {
		p.runOne(j)
	}
}

func (p *Pool) runOne(j *job) {
	p.mu.Lock()
	if j.snap.State != StateQueued { // canceled while queued
		p.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(p.baseCtx)
	if j.timeout > 0 {
		ctx, cancel = context.WithTimeout(p.baseCtx, j.timeout)
	}
	ctx = context.WithValue(ctx, idKey{}, j.snap.ID)
	if p.ctxWrap != nil {
		ctx = p.ctxWrap(ctx)
	}
	j.cancel = cancel
	j.snap.State = StateRunning
	j.snap.Started = time.Now()
	p.stats.Queued--
	p.stats.Running++
	p.log.Info("job started",
		"job_id", j.snap.ID,
		"queue_wait", j.snap.Started.Sub(j.snap.Created),
		"queue_depth", p.stats.Queued)
	p.mu.Unlock()

	var result any
	var err error
	for attempt := 0; ; attempt++ {
		result, err = p.invoke(ctx, j)
		if err == nil || !IsTransient(err) || attempt >= p.maxRetries || ctx.Err() != nil {
			break
		}
		backoff := p.retryBase << attempt
		p.mu.Lock()
		p.stats.Retries++
		p.mu.Unlock()
		p.log.Warn("job retrying",
			"job_id", j.snap.ID,
			"attempt", attempt+1,
			"backoff", backoff,
			"error", err.Error())
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
		}
		if cerr := ctx.Err(); cerr != nil {
			// Cancelled (or timed out) mid-backoff: finish as canceled
			// rather than burning another attempt.
			err = cerr
			break
		}
	}
	cancel()

	p.mu.Lock()
	p.stats.Running--
	switch {
	case err == nil:
		p.finishLocked(j, StateDone, result, nil)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		p.finishLocked(j, StateCanceled, nil, err)
	default:
		p.finishLocked(j, StateFailed, nil, err)
	}
	p.mu.Unlock()
}

// invoke runs one attempt of the job function inside a recovery
// envelope: a panic is caught here — the worker goroutine survives —
// recorded with its stack, and converted into an error wrapping
// ErrPanic. The jobs.run fault point fires inside the envelope, so
// injected panics take the identical path.
func (p *Pool) invoke(ctx context.Context, j *job) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			stack := debug.Stack()
			p.mu.Lock()
			p.stats.Panics++
			p.mu.Unlock()
			p.log.Error("job panicked; worker recovered",
				"job_id", j.snap.ID,
				"panic", fmt.Sprint(r),
				"stack", string(stack))
			result = nil
			err = fmt.Errorf("%w: %v", ErrPanic, r)
		}
	}()
	if err := faultRun.Hit(); err != nil {
		return nil, err
	}
	return j.fn(ctx)
}

// finishLocked moves j to a terminal state. Caller holds p.mu.
func (p *Pool) finishLocked(j *job, state State, result any, err error) {
	if j.snap.State.Terminal() {
		return
	}
	if j.snap.State == StateQueued {
		p.stats.Queued--
	}
	j.snap.State = state
	j.snap.Finished = time.Now()
	j.snap.Result = result
	if err != nil {
		j.snap.Err = err.Error()
	}
	switch state {
	case StateDone:
		p.stats.Completed += j.count
	case StateFailed:
		p.stats.Failed += j.count
	case StateCanceled:
		p.stats.Canceled += j.count
	}
	attrs := []any{
		"job_id", j.snap.ID,
		"state", string(state),
		"duration", j.snap.Finished.Sub(j.snap.Created),
		"queue_depth", p.stats.Queued,
	}
	if j.snap.Err != "" {
		attrs = append(attrs, "error", j.snap.Err)
	}
	p.log.Info("job finished", attrs...)
	close(j.doneCh)
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
