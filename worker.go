package mapsim

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/maps-sim/mapsim/internal/fleet"
	"github.com/maps-sim/mapsim/internal/server"
	"github.com/maps-sim/mapsim/internal/sweep"
)

// Ready probes the daemon's GET /readyz with a single attempt — no
// retries, because a health probe that retried through failures would
// defeat its point. It returns nil when the daemon is accepting work,
// an *APIError when it answered unready (draining, saturated), and a
// transport error when it is unreachable.
func (c *Client) Ready(ctx context.Context) error {
	return c.once(ctx, http.MethodGet, "/readyz", nil, nil)
}

// WorkerRunner adapts a remote mapsd daemon to the fleet's Runner
// interface: a sweep coordinator dispatches grid points to it as run
// jobs over the retrying Client, probes health via /readyz, and
// relies on its error classification — infrastructure failures come
// back marked as worker failures (re-issue the point elsewhere),
// simulation errors come back plain (fail the sweep fast).
//
// Every dispatched point is round-trip verified before it leaves:
// the wire-encoded config must land on exactly the point's canonical
// content address, so a remote result is interchangeable — same store
// key, byte-identical payload — with a local one. A point the wire
// cannot express faithfully is rejected rather than approximated.
type WorkerRunner struct {
	client *Client
	name   string
}

// NewWorkerRunner wraps a client as a fleet worker named after its
// base URL.
func NewWorkerRunner(c *Client) *WorkerRunner {
	return &WorkerRunner{client: c, name: c.BaseURL}
}

// Name identifies the worker (its daemon base URL).
func (w *WorkerRunner) Name() string { return w.name }

// Healthy probes the daemon's /readyz, bounding the probe at two
// seconds so an unreachable worker cannot stall dispatch.
func (w *WorkerRunner) Healthy(ctx context.Context) bool {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	return w.client.Ready(ctx) == nil
}

// Run dispatches the point to the daemon as a run job and waits for
// its result.
func (w *WorkerRunner) Run(ctx context.Context, p sweep.Point, timeout time.Duration, noCache bool) (*Result, error) {
	pol, part := sweep.CacheNames(p)
	spec, err := server.SpecFromSim(p.Config, pol, part)
	if err != nil {
		return nil, fmt.Errorf("point %s: %w", p, err) // inexpressible — fail fast
	}
	// Round-trip verification: decoding our own wire spec must yield
	// the point's exact content address, or the remote would compute
	// (and store) something subtly different.
	localKey, err := sweep.PointKey(p)
	if err != nil {
		return nil, fmt.Errorf("point %s: %w", p, err)
	}
	rt, err := spec.Point()
	if err != nil {
		return nil, fmt.Errorf("point %s: wire round-trip: %w", p, err)
	}
	rtKey, err := sweep.PointKey(rt)
	if err != nil {
		return nil, fmt.Errorf("point %s: wire round-trip: %w", p, err)
	}
	if rtKey != localKey {
		return nil, fmt.Errorf("point %s: wire round-trip changed the content address (%s != %s)", p, rtKey, localKey)
	}

	req := JobRequest{
		Type:       JobRun,
		Config:     spec,
		TimeoutSec: timeout.Seconds(),
		NoCache:    noCache,
	}
	st, err := w.client.Submit(ctx, req)
	if err != nil {
		return nil, w.classify(err)
	}
	if !st.State.Terminal() {
		if st, err = w.client.Wait(ctx, st.ID); err != nil {
			return nil, w.classify(err)
		}
	}
	switch st.State {
	case JobDone:
	case JobCanceled:
		// The worker killed the job (shutdown, drain) — not a
		// simulation verdict; run it elsewhere.
		return nil, fleet.WorkerFailure(fmt.Errorf("worker %s canceled job %s: %s", w.name, st.ID, st.Error))
	default:
		return nil, fmt.Errorf("job %s on %s failed: %s", st.ID, w.name, st.Error)
	}
	res, err := w.client.Result(ctx, st.ID)
	if err != nil {
		return nil, w.classify(err)
	}
	if res.Run == nil {
		return nil, fleet.WorkerFailure(fmt.Errorf("worker %s: job %s returned no run result", w.name, st.ID))
	}
	return res.Run, nil
}

// classify sorts a client error into the coordinator's two buckets:
// worker failures (transport errors, 429 shed, 5xx — re-issue
// elsewhere) versus caller/simulation errors (4xx — fail fast).
// Context errors pass through untouched so cancellation is never
// mistaken for a sick worker.
func (w *WorkerRunner) classify(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	var ae *APIError
	if errors.As(err, &ae) {
		if ae.StatusCode == http.StatusTooManyRequests || ae.StatusCode >= 500 {
			return fleet.WorkerFailure(fmt.Errorf("worker %s: %w", w.name, err))
		}
		return fmt.Errorf("worker %s: %w", w.name, err)
	}
	// Transport-level failure — connection refused, reset, DNS: the
	// worker is unreachable, not wrong.
	return fleet.WorkerFailure(fmt.Errorf("worker %s: %w", w.name, err))
}

// FleetWorker bundles a WorkerRunner into the fleet.Worker shape the
// server's Config.Fleet wants, bounding the daemon to maxInflight
// concurrent points (<= 0 means 1).
func FleetWorker(c *Client, maxInflight int) fleet.Worker {
	return fleet.Worker{Runner: NewWorkerRunner(c), MaxInflight: maxInflight}
}
