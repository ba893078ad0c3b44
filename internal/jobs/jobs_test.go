package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/maps-sim/mapsim/internal/faults"
)

func TestSubmitRunsToCompletion(t *testing.T) {
	p := New(2, 4)
	defer p.Shutdown(context.Background())
	id, err := p.Submit(func(ctx context.Context) (any, error) { return 42, nil }, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := p.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateDone || snap.Result.(int) != 42 {
		t.Fatalf("snap: %+v", snap)
	}
	if snap.Started.IsZero() || snap.Finished.Before(snap.Started) {
		t.Fatalf("timestamps not monotone: %+v", snap)
	}
}

func TestSubmitFailure(t *testing.T) {
	p := New(1, 1)
	defer p.Shutdown(context.Background())
	id, _ := p.Submit(func(ctx context.Context) (any, error) {
		return nil, fmt.Errorf("boom")
	}, 0)
	snap, _ := p.Wait(context.Background(), id)
	if snap.State != StateFailed || snap.Err != "boom" {
		t.Fatalf("snap: %+v", snap)
	}
	if s := p.Stats(); s.Failed != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestQueueFull(t *testing.T) {
	p := New(1, 1)
	defer p.Shutdown(context.Background())
	block := make(chan struct{})
	started := make(chan struct{})
	// Occupy the single worker…
	p.Submit(func(ctx context.Context) (any, error) {
		close(started)
		<-block
		return nil, nil
	}, 0)
	<-started
	// …fill the single queue slot…
	if _, err := p.Submit(func(ctx context.Context) (any, error) { return nil, nil }, 0); err != nil {
		t.Fatalf("second submit should queue: %v", err)
	}
	// …and the third must be rejected with back-pressure.
	if _, err := p.Submit(func(ctx context.Context) (any, error) { return nil, nil }, 0); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("got %v, want ErrQueueFull", err)
	}
	if s := p.Stats(); s.Rejected != 1 {
		t.Fatalf("stats: %+v", s)
	}
	close(block)
}

func TestCancelRunning(t *testing.T) {
	p := New(1, 1)
	defer p.Shutdown(context.Background())
	started := make(chan struct{})
	id, _ := p.Submit(func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}, 0)
	<-started
	if err := p.Cancel(id); err != nil {
		t.Fatal(err)
	}
	snap, _ := p.Wait(context.Background(), id)
	if snap.State != StateCanceled {
		t.Fatalf("state %s, want canceled", snap.State)
	}
}

func TestCancelQueued(t *testing.T) {
	p := New(1, 2)
	defer p.Shutdown(context.Background())
	block := make(chan struct{})
	started := make(chan struct{})
	var ran atomic.Bool
	p.Submit(func(ctx context.Context) (any, error) {
		close(started)
		<-block
		return nil, nil
	}, 0)
	<-started
	id, _ := p.Submit(func(ctx context.Context) (any, error) {
		ran.Store(true)
		return nil, nil
	}, 0)
	if err := p.Cancel(id); err != nil {
		t.Fatal(err)
	}
	snap, _ := p.Get(id)
	if snap.State != StateCanceled {
		t.Fatalf("state %s, want canceled (immediately, while queued)", snap.State)
	}
	close(block)
	p.Shutdown(context.Background())
	if ran.Load() {
		t.Fatal("canceled queued job must never run")
	}
}

func TestJobTimeout(t *testing.T) {
	p := New(1, 1)
	defer p.Shutdown(context.Background())
	id, _ := p.Submit(func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}, 10*time.Millisecond)
	snap, _ := p.Wait(context.Background(), id)
	if snap.State != StateCanceled {
		t.Fatalf("state %s, want canceled on deadline", snap.State)
	}
}

func TestCompleteRegistersTerminalJob(t *testing.T) {
	p := New(1, 1)
	defer p.Shutdown(context.Background())
	id, err := p.Complete("cached")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := p.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateDone || snap.Result.(string) != "cached" {
		t.Fatalf("snap: %+v", snap)
	}
	// Wait on an already-done job returns immediately.
	if _, err := p.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
}

func TestShutdownDrains(t *testing.T) {
	p := New(1, 4)
	var finished atomic.Int32
	slow := func(ctx context.Context) (any, error) {
		time.Sleep(20 * time.Millisecond)
		finished.Add(1)
		return nil, nil
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Submit(slow, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := finished.Load(); got != 3 {
		t.Fatalf("%d jobs finished, want 3 (drain must complete queued work)", got)
	}
	if _, err := p.Submit(slow, 0); !errors.Is(err, ErrShutdown) {
		t.Fatalf("got %v, want ErrShutdown", err)
	}
}

func TestShutdownDeadlineCancelsInFlight(t *testing.T) {
	p := New(1, 1)
	started := make(chan struct{})
	id, _ := p.Submit(func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done() // only a cancellation lets this job end
		return nil, ctx.Err()
	}, 0)
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	snap, _ := p.Get(id)
	if snap.State != StateCanceled {
		t.Fatalf("state %s, want canceled after forced shutdown", snap.State)
	}
}

func TestGetUnknown(t *testing.T) {
	p := New(1, 1)
	defer p.Shutdown(context.Background())
	if _, err := p.Get("j-missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
	if err := p.Cancel("j-missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
}

// A panicking job must fail cleanly — stack captured, panic counted —
// while the worker goroutine survives to run the next job.
func TestPanicIsolatedAndCounted(t *testing.T) {
	p := New(1, 2)
	defer p.Shutdown(context.Background())
	id, err := p.Submit(func(ctx context.Context) (any, error) {
		panic("kaboom")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := p.Wait(context.Background(), id)
	if snap.State != StateFailed {
		t.Fatalf("state %s, want failed", snap.State)
	}
	if !strings.Contains(snap.Err, "kaboom") || !strings.Contains(snap.Err, "panicked") {
		t.Fatalf("error %q does not describe the panic", snap.Err)
	}
	s := p.Stats()
	if s.Panics != 1 {
		t.Fatalf("panics %d, want 1", s.Panics)
	}
	if s.Retries != 0 {
		t.Fatalf("retries %d; panics must not be retried", s.Retries)
	}
	// The single worker is still alive: a follow-up job completes.
	id2, _ := p.Submit(func(ctx context.Context) (any, error) { return "alive", nil }, 0)
	snap2, _ := p.Wait(context.Background(), id2)
	if snap2.State != StateDone || snap2.Result.(string) != "alive" {
		t.Fatalf("worker dead after panic: %+v", snap2)
	}
}

// A transiently failing job is retried with backoff and eventually
// succeeds; the retry counter accounts every re-execution.
func TestTransientRetrySucceeds(t *testing.T) {
	p := New(1, 1, WithRetry(3, time.Millisecond))
	defer p.Shutdown(context.Background())
	var attempts atomic.Int32
	id, _ := p.Submit(func(ctx context.Context) (any, error) {
		if attempts.Add(1) <= 2 {
			return nil, Transient(fmt.Errorf("blip %d", attempts.Load()))
		}
		return "ok", nil
	}, 0)
	snap, _ := p.Wait(context.Background(), id)
	if snap.State != StateDone || snap.Result.(string) != "ok" {
		t.Fatalf("snap: %+v", snap)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("attempts %d, want 3", got)
	}
	if s := p.Stats(); s.Retries != 2 || s.Failed != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

// When every attempt fails transiently the job fails after exhausting
// its budget: maxRetries re-executions, then the final error sticks.
func TestTransientRetryExhausts(t *testing.T) {
	p := New(1, 1, WithRetry(2, time.Millisecond))
	defer p.Shutdown(context.Background())
	var attempts atomic.Int32
	id, _ := p.Submit(func(ctx context.Context) (any, error) {
		attempts.Add(1)
		return nil, Transient(errors.New("always down"))
	}, 0)
	snap, _ := p.Wait(context.Background(), id)
	if snap.State != StateFailed {
		t.Fatalf("state %s, want failed", snap.State)
	}
	if got := attempts.Load(); got != 3 { // 1 try + 2 retries
		t.Fatalf("attempts %d, want 3", got)
	}
	if s := p.Stats(); s.Retries != 2 {
		t.Fatalf("retries %d, want 2", s.Retries)
	}
}

// Non-transient failures fail fast: one attempt, no backoff.
func TestNonTransientNotRetried(t *testing.T) {
	p := New(1, 1, WithRetry(5, time.Millisecond))
	defer p.Shutdown(context.Background())
	var attempts atomic.Int32
	id, _ := p.Submit(func(ctx context.Context) (any, error) {
		attempts.Add(1)
		return nil, errors.New("deterministic failure")
	}, 0)
	snap, _ := p.Wait(context.Background(), id)
	if snap.State != StateFailed || attempts.Load() != 1 {
		t.Fatalf("state %s after %d attempts, want failed after 1", snap.State, attempts.Load())
	}
	if s := p.Stats(); s.Retries != 0 {
		t.Fatalf("retries %d, want 0", s.Retries)
	}
}

// IsTransient must see through wrap chains and reject everything else.
func TestIsTransient(t *testing.T) {
	if IsTransient(nil) {
		t.Error("nil is transient")
	}
	if IsTransient(errors.New("plain")) {
		t.Error("plain error is transient")
	}
	if !IsTransient(Transient(errors.New("blip"))) {
		t.Error("Transient() not transient")
	}
	if !IsTransient(fmt.Errorf("wrapped: %w", Transient(errors.New("blip")))) {
		t.Error("wrapped transient not detected")
	}
	if Transient(nil) != nil {
		t.Error("Transient(nil) != nil")
	}
}

// Once Shutdown has begun, Submit and Complete must reject with the
// typed ErrDraining (which still matches ErrShutdown for old callers).
func TestSubmitDuringDrainErrDraining(t *testing.T) {
	p := New(1, 2)
	block := make(chan struct{})
	started := make(chan struct{})
	p.Submit(func(ctx context.Context) (any, error) {
		close(started)
		<-block
		return nil, nil
	}, 0)
	<-started
	done := make(chan struct{})
	go func() {
		p.Shutdown(context.Background())
		close(done)
	}()
	// Wait for the drain to begin.
	for deadline := time.Now().Add(5 * time.Second); !p.Draining(); {
		if time.Now().After(deadline) {
			t.Fatal("pool never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := p.Submit(func(ctx context.Context) (any, error) { return nil, nil }, 0); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit during drain: %v, want ErrDraining", err)
	}
	if _, err := p.Complete("x"); !errors.Is(err, ErrDraining) {
		t.Fatalf("Complete during drain: %v, want ErrDraining", err)
	}
	if _, err := p.Submit(func(ctx context.Context) (any, error) { return nil, nil }, 0); !errors.Is(err, ErrShutdown) {
		t.Fatal("ErrDraining must keep matching ErrShutdown")
	}
	close(block)
	<-done
	if !p.Draining() {
		t.Error("drained pool not reported as draining")
	}
}

// The jobs.run fault point injects inside the recovery envelope: an
// injected error is transient (retried), an injected panic is isolated.
func TestJobsRunFaultPoint(t *testing.T) {
	t.Cleanup(faults.Reset)
	if err := faults.P("jobs.run").Arm(faults.Injection{Mode: faults.ModeErr}); err != nil {
		t.Fatal(err)
	}
	p := New(1, 1, WithRetry(1, time.Millisecond))
	defer p.Shutdown(context.Background())
	var ran atomic.Int32
	id, _ := p.Submit(func(ctx context.Context) (any, error) {
		ran.Add(1)
		return nil, nil
	}, 0)
	snap, _ := p.Wait(context.Background(), id)
	if snap.State != StateFailed || !strings.Contains(snap.Err, "injected") {
		t.Fatalf("snap: %+v", snap)
	}
	if ran.Load() != 0 {
		t.Fatal("fault fired but the job function still ran")
	}
	if s := p.Stats(); s.Retries != 1 {
		t.Fatalf("injected errors must be retried as transient: %+v", s)
	}
	if got := faults.P("jobs.run").Fired(); got != 2 { // initial attempt + 1 retry
		t.Fatalf("fired %d, want 2", got)
	}

	faults.Reset()
	if err := faults.P("jobs.run").Arm(faults.Injection{Mode: faults.ModePanic}); err != nil {
		t.Fatal(err)
	}
	id2, _ := p.Submit(func(ctx context.Context) (any, error) { return nil, nil }, 0)
	snap2, _ := p.Wait(context.Background(), id2)
	if snap2.State != StateFailed || !strings.Contains(snap2.Err, "panicked") {
		t.Fatalf("snap: %+v", snap2)
	}
	faults.Reset()
	// Worker survived the injected panic.
	id3, _ := p.Submit(func(ctx context.Context) (any, error) { return 7, nil }, 0)
	if snap3, _ := p.Wait(context.Background(), id3); snap3.State != StateDone {
		t.Fatalf("worker dead after injected panic: %+v", snap3)
	}
}

func TestRunSuccess(t *testing.T) {
	p := New(2, 4)
	defer p.Shutdown(context.Background())
	out, err := p.Run(context.Background(), func(ctx context.Context) (any, error) { return "ok", nil }, 0)
	if err != nil || out.(string) != "ok" {
		t.Fatalf("Run = %v, %v", out, err)
	}
}

func TestRunFailedJob(t *testing.T) {
	p := New(1, 1)
	defer p.Shutdown(context.Background())
	_, err := p.Run(context.Background(), func(ctx context.Context) (any, error) {
		return nil, errors.New("deterministic boom")
	}, 0)
	if err == nil || !strings.Contains(err.Error(), "deterministic boom") {
		t.Fatalf("Run error = %v, want the job's own failure", err)
	}
}

func TestRunBackpressureAbsorbsQueueFull(t *testing.T) {
	// 1 worker, queue depth 1: submissions beyond the second would get
	// ErrQueueFull from Submit; Run must absorb that by waiting.
	p := New(1, 1)
	defer p.Shutdown(context.Background())
	release := make(chan struct{})
	p.Submit(func(ctx context.Context) (any, error) { <-release; return nil, nil }, 0)
	p.Submit(func(ctx context.Context) (any, error) { return nil, nil }, 0)

	done := make(chan error, 1)
	go func() {
		_, err := p.Run(context.Background(), func(ctx context.Context) (any, error) { return nil, nil }, 0)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("Run returned %v before the queue had room", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Run after backpressure: %v", err)
	}
}

func TestRunCtxCancelWhileQueued(t *testing.T) {
	p := New(1, 1)
	defer p.Shutdown(context.Background())
	release := make(chan struct{})
	defer close(release)
	p.Submit(func(ctx context.Context) (any, error) { <-release; return nil, nil }, 0)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.Run(ctx, func(ctx context.Context) (any, error) { return nil, nil }, 0)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
}

func TestWithContextWrap(t *testing.T) {
	type wrapKey struct{}
	p := New(1, 4, WithContextWrap(func(ctx context.Context) context.Context {
		return context.WithValue(ctx, wrapKey{}, 42)
	}))
	defer p.Shutdown(context.Background())
	out, err := p.Run(context.Background(), func(ctx context.Context) (any, error) {
		return ctx.Value(wrapKey{}), nil
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out != 42 {
		t.Fatalf("job context value = %v, want 42 (wrap not applied)", out)
	}
}

// TestRunBatchCountsSimulations: a batch job takes one worker but
// counts its size in the cumulative stats, whatever its outcome.
func TestRunBatchCountsSimulations(t *testing.T) {
	p := New(1, 4)
	defer p.Shutdown(context.Background())
	if out, err := p.RunBatch(context.Background(), 5, func(context.Context) (any, error) { return "ok", nil }, 0); err != nil || out != "ok" {
		t.Fatalf("RunBatch = %v, %v", out, err)
	}
	if _, err := p.RunBatch(context.Background(), 3, func(context.Context) (any, error) { return nil, errors.New("boom") }, 0); err == nil {
		t.Fatal("failing batch succeeded")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p.RunBatch(ctx, 2, func(ctx context.Context) (any, error) { return nil, ctx.Err() }, 0)
	s := p.Stats()
	if s.Completed != 5 || s.Failed != 3 || s.Submitted < 8 || s.Queued != 0 || s.Running != 0 {
		t.Fatalf("stats %+v: want 5 completed and 3 failed of at least 8 submitted, none queued or running", s)
	}
	if s.Submitted != s.Completed+s.Failed+s.Canceled {
		t.Fatalf("stats %+v: submitted does not add up to its outcomes", s)
	}
}
