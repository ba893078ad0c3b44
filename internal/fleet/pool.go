package fleet

import (
	"context"
	"time"

	"github.com/maps-sim/mapsim/internal/jobs"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/sweep"
)

// PoolRunner adapts the local jobs pool to the Runner interface, so
// the coordinator dispatches to this daemon's own workers exactly
// like to a remote one. Points run through sweep.Instantiate — the
// same materialization path as the single-node engine — so a
// one-worker fleet is byte-identical to Engine.Run.
type PoolRunner struct {
	// Pool executes the points; required.
	Pool *jobs.Pool
	// WorkerName is the attribution name (default "local").
	WorkerName string
}

// Name identifies the local worker in attribution and metrics.
func (r *PoolRunner) Name() string {
	if r.WorkerName != "" {
		return r.WorkerName
	}
	return "local"
}

// Run executes the point as a pool job; noCache is moot here — the
// pool always simulates, the coordinator owns cache lookups. Pool
// errors are returned plain: a failure on the local pool fails the
// sweep fast, matching single-node engine semantics.
func (r *PoolRunner) Run(ctx context.Context, p sweep.Point, timeout time.Duration, _ bool) (*sim.Result, error) {
	rs, err := sweep.RunGroup(ctx, r.Pool, []sweep.Point{p}, timeout)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// RunGroup executes points that share a front as one pool job, under
// a deadline of timeout × len(points); errors follow Run's rules.
func (r *PoolRunner) RunGroup(ctx context.Context, points []sweep.Point, timeout time.Duration) ([]*sim.Result, error) {
	return sweep.RunGroup(ctx, r.Pool, points, timeout)
}

// Healthy reports whether the pool is accepting work.
func (r *PoolRunner) Healthy(context.Context) bool {
	return r.Pool != nil && !r.Pool.Draining()
}
