// Package experiments reproduces every table and figure of MAPS
// (ISPASS 2018). Each ExperimentN function runs the required
// simulation sweep and returns a structured result with a Render
// method that prints the same rows/series the paper plots.
// DESIGN.md §4 maps experiments to modules and expected shapes.
package experiments

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"github.com/maps-sim/mapsim/internal/jobs"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/sweep"
	"github.com/maps-sim/mapsim/internal/workload"
)

// Names lists every experiment, paper order first then extensions —
// the registry behind `maps all` and mapsd's GET /v1/experiments.
func Names() []string {
	return []string{
		"table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"ablate-partial", "content-matrix", "org-compare", "csopt", "spec-window", "tree-stretch",
	}
}

// Options tunes an experiment sweep.
type Options struct {
	// Instructions per simulation (default 2M; tests use far less).
	Instructions uint64
	// Benchmarks overrides the experiment's default benchmark list.
	Benchmarks []string
	// Parallelism bounds concurrent simulations (default NumCPU).
	Parallelism int
}

// validate rejects option values that would otherwise be silently
// replaced by defaults: an Instructions count that is a negative
// number forced into the uint64 (the CLI parses int64), and benchmark
// overrides that are empty strings or unknown names — simulating the
// default suite against the caller's intent.
func (o *Options) validate() error {
	if o.Instructions > math.MaxInt64 {
		return fmt.Errorf("experiments: negative instruction count (%d after uint64 conversion)", o.Instructions)
	}
	for _, b := range o.Benchmarks {
		if b == "" {
			return fmt.Errorf("experiments: empty benchmark name in override list")
		}
		if _, err := workload.New(b); err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
	}
	return nil
}

func (o *Options) fill() {
	if o.Instructions == 0 {
		o.Instructions = 2_000_000
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.NumCPU()
	}
}

func (o *Options) benchmarks(def []string) []string {
	if len(o.Benchmarks) > 0 {
		return o.Benchmarks
	}
	return def
}

// job is one simulation plus a slot to deliver its result.
type job struct {
	cfg sim.Config
	out **sim.Result
}

// runTasks runs fn(ctx, i) for every i in [0, n) with bounded
// parallelism and fail-fast cancellation: the first error cancels the
// shared context, tasks not yet started never start, and in-flight
// ones stop at their next cancellation check. Only the first error is
// kept, so runs cancelled as victims of an earlier failure never mask
// the root cause. Every experiment fan-out builds on this — the
// hand-rolled semaphores fig3/fig6/fig7 used to carry lacked both the
// cancellation and the never-start guarantee.
func runTasks(ctx context.Context, n, parallelism int, fn func(ctx context.Context, i int) error) error {
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	// Let each run see how much CPU this fan-out already claims, so
	// it pipelines only into cores the fan-out leaves idle.
	ctx = sim.WithConcurrency(ctx, parallelism)
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
		cancel() // abandon the rest of the fan-out
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if ctx.Err() != nil {
				return // a sibling already failed; don't start
			}
			if err := fn(ctx, i); err != nil {
				fail(err)
			}
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// runAll executes jobs with bounded parallelism, failing fast on the
// first error. Jobs that share a front (same benchmark, seed, length,
// and hierarchy; see sim.FrontOf) are grouped by sweep.Groups and each
// group runs as one sim.RunGroup, so back-end variants of one
// benchmark simulate its generator and hierarchy once. Configs must
// not share mutable state (pass benchmarks by name so each run builds
// private generators; taps must be per-job).
func runAll(jobList []job, opt Options) error {
	points := make([]sweep.Point, len(jobList))
	for i, j := range jobList {
		points[i] = sweep.Point{Index: i, Config: j.cfg}
	}
	groups := sweep.Groups(points, opt.Parallelism)
	return runTasks(context.Background(), len(groups), opt.Parallelism, func(ctx context.Context, i int) error {
		g := groups[i]
		cfgs := make([]sim.Config, len(g))
		for k, p := range g {
			cfgs[k] = p.Config
		}
		res, err := sim.RunGroup(ctx, cfgs)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", cfgs[0].Benchmark, err)
		}
		for k, p := range g {
			*jobList[p.Index].out = res[k]
		}
		return nil
	})
}

// runSweep executes a sweep spec on a transient worker pool sized to
// the experiment's parallelism — the shared grid fan-out behind fig1,
// fig2, and ablate-partial since the sweep-engine refactor. Local
// experiment runs carry no result cache: every point simulates.
func runSweep(spec sweep.Spec, opt Options) (*sweep.Result, error) {
	pool := jobs.New(opt.Parallelism, opt.Parallelism, jobs.WithContextWrap(func(ctx context.Context) context.Context {
		return sim.WithConcurrency(ctx, opt.Parallelism)
	}))
	defer pool.Shutdown(context.Background())
	eng := &sweep.Engine{Pool: pool}
	return eng.Run(context.Background(), spec)
}

// sizeLabel prints capacities the way the paper's axes do.
func sizeLabel(bytes int) string {
	switch {
	case bytes >= 1<<20 && bytes%(1<<20) == 0:
		return fmt.Sprintf("%dMB", bytes>>20)
	case bytes >= 1<<10:
		return fmt.Sprintf("%dKB", bytes>>10)
	default:
		return fmt.Sprintf("%dB", bytes)
	}
}

// MetaSizes are the metadata-cache capacities swept in Figures 1-2.
var MetaSizes = []int{16 << 10, 64 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20}

// LLCSizes are the last-level cache capacities swept in Figure 2.
var LLCSizes = []int{512 << 10, 1 << 20, 2 << 20, 4 << 20}
