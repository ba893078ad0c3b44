package fleet

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/maps-sim/mapsim/internal/jobs"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/sweep"
)

// PoolRunner adapts the local jobs pool to the Runner interface, so
// the coordinator dispatches to this process's own workers exactly
// like to a remote one. Points run through sweep.Instantiate — the
// same materialization path a worker daemon uses for a dispatched
// point — so results are bit-identical wherever a point runs.
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
// errors are returned plain: a failure on the local pool is a
// simulation failure and fails the sweep fast.
func (r *PoolRunner) Run(ctx context.Context, p sweep.Point, timeout time.Duration, _ bool) (*sim.Result, error) {
	rs, err := r.RunGroup(ctx, []sweep.Point{p}, timeout)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// RunGroup simulates points that share a front as one pool job: each
// point instantiated through sweep.Instantiate, then one
// sim.RunGroup (a batch of len(points) in the pool's counters, which
// therefore still count simulated points). timeout is per point, so
// the job's deadline is timeout × len(points) (0 = none); errors
// follow Run's rules.
func (r *PoolRunner) RunGroup(ctx context.Context, points []sweep.Point, timeout time.Duration) ([]*sim.Result, error) {
	out, err := r.Pool.RunBatch(ctx, len(points), func(jctx context.Context) (any, error) {
		cfgs := make([]sim.Config, len(points))
		for i, p := range points {
			cfg, err := sweep.Instantiate(p)
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
		return nil, fmt.Errorf("fleet: group job returned %T, want %d results", out, len(points))
	}
	return rs, nil
}

// Healthy reports whether the pool is accepting work.
func (r *PoolRunner) Healthy(context.Context) bool {
	return r.Pool != nil && !r.Pool.Draining()
}

// RunLocal runs spec in this process: a Coordinator with one
// PoolRunner lane of parallelism slots (default NumCPU) over a
// transient pool of the same size, with no cache — every point
// simulates.
func RunLocal(ctx context.Context, spec sweep.Spec, parallelism int) (*sweep.Result, error) {
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	pool := jobs.New(parallelism, parallelism, jobs.WithContextWrap(func(ctx context.Context) context.Context {
		// Points pipeline only into cores the pool's own fan-out
		// leaves unclaimed.
		return sim.WithConcurrency(ctx, parallelism)
	}))
	defer pool.Shutdown(context.Background())
	coord := &Coordinator{Workers: []Worker{{Runner: &PoolRunner{Pool: pool}, MaxInflight: parallelism}}}
	return coord.Run(ctx, spec)
}
