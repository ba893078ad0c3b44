package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/maps-sim/mapsim/internal/fleet"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/sweep"
)

// Report is one experiment's execution record: the structured result
// (what `maps -json` and mapsd serialize), its rendered table, an
// optional ASCII chart, and the host time it took.
type Report struct {
	// Name is the experiment's registry name ("fig1", "csopt", ...).
	Name string `json:"experiment"`
	// Result is the experiment-specific result struct (or the rendered
	// string for the static tables).
	Result any `json:"result"`
	// Table is the human-readable rendering.
	Table string `json:"-"`
	// Chart is the ASCII chart when requested and supported.
	Chart string `json:"-"`
	// Elapsed is the experiment's host time: its runs'
	// Result.Timing.Total summed (a group member's share of its
	// group's pass), plus its plan, finish, and render steps.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// renderer is implemented by every experiment result that renders a
// table.
type renderer interface{ Render() string }

// chartRenderer is implemented by the results that can also draw an
// ASCII chart.
type chartRenderer interface{ RenderChart() string }

// job is one simulation of a plan: its config, with a per-job Tap
// where the exhibit records the run's metadata stream, and, once it
// has run, its result.
type job struct {
	cfg sim.Config
	res *sim.Result
	// done, when set, gets the result as soon as this job lands,
	// before the rest of its phase has run: where a Tap builds bulky
	// state, done reduces it to what the result needs and releases it,
	// so a phase holds only the state of runs still in flight. Calls
	// are serialized.
	done func(*sim.Result)
}

// plan is one phase of an experiment: the simulations it needs, and
// the finish step that runs once all of them have their results.
// finish fills in the experiment's result, or returns the next phase
// where a run needs an earlier run's output (fig6's MIN rounds take
// the previous trace, CSOPT's replay the solved schedule); nil ends
// the experiment.
type plan struct {
	jobs   []*job
	finish func() (*plan, error)
}

// run adds a simulation of cfg to p and returns its job, so the
// finish step can read the result.
func (p *plan) run(cfg sim.Config) *job {
	j := &job{cfg: cfg}
	p.jobs = append(p.jobs, j)
	return j
}

// together unions plans phase by phase into one: each phase runs the
// jobs of every plan still going, then each of their finish steps.
// Nil plans are done already; together of none is nil.
func together(plans []*plan) *plan {
	var live []*plan
	for _, p := range plans {
		if p != nil {
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		return nil
	}
	u := &plan{}
	for _, p := range live {
		u.jobs = append(u.jobs, p.jobs...)
	}
	u.finish = func() (*plan, error) {
		next := make([]*plan, len(live))
		for i, p := range live {
			n, err := p.finish()
			if err != nil {
				return nil, err
			}
			next[i] = n
		}
		return together(next), nil
	}
	return u
}

// timed wraps p's phases so each adds its jobs' host time and the
// time of its done and finish steps to *host.
func timed(p *plan, host *time.Duration) *plan {
	if p == nil {
		return nil
	}
	for _, j := range p.jobs {
		if done := j.done; done != nil {
			j.done = func(r *sim.Result) {
				start := time.Now()
				done(r)
				*host += time.Since(start)
			}
		}
	}
	return &plan{jobs: p.jobs, finish: func() (*plan, error) {
		for _, j := range p.jobs {
			*host += j.res.Timing.Total
		}
		start := time.Now()
		next, err := p.finish()
		*host += time.Since(start)
		return timed(next, host), err
	}}
}

// execute runs p phase by phase, each phase's jobs in one
// fleet.RunLocal call over parallelism slots — the one executor every
// experiment's simulations go through. Jobs sharing a front run as
// one group (sweep.Groups), whichever experiment they came from. The
// first failure stops the run and is returned, never masked by a
// cancelled sibling.
func execute(ctx context.Context, p *plan, parallelism int) error {
	for p != nil {
		if len(p.jobs) > 0 {
			points := make([]sweep.Point, len(p.jobs))
			for i, j := range p.jobs {
				points[i] = sweep.Point{Index: i, Benchmark: j.cfg.Benchmark, Secure: j.cfg.Secure, Config: j.cfg}
			}
			_, err := fleet.RunLocal(ctx, points, parallelism, func(pr sweep.PointResult) {
				j := p.jobs[pr.Index]
				j.res = pr.Result
				if j.done != nil {
					j.done(pr.Result)
				}
			})
			if err != nil {
				return fmt.Errorf("experiments: %w", err)
			}
		}
		var err error
		if p, err = p.finish(); err != nil {
			return err
		}
	}
	return nil
}

// exhibit builds one experiment for filled options: its result, which
// the finish steps complete, and its first phase (nil when it needs
// no simulation).
type exhibit func(Options) (any, *plan, error)

// typed adapts a typed experiment builder to the registry signature.
func typed[T any](f func(Options) (T, *plan, error)) exhibit {
	return func(o Options) (any, *plan, error) { return f(o) }
}

// registry maps every experiment name to its builder. Keep it in
// lockstep with Names (enforced by TestRegistryCoversNames).
var registry = map[string]exhibit{
	"table1":         func(Options) (any, *plan, error) { return Table1(), nil, nil },
	"table2":         func(Options) (any, *plan, error) { return Table2(), nil, nil },
	"fig1":           typed(fig1),
	"fig2":           typed(fig2),
	"fig3":           typed(fig3),
	"fig4":           typed(fig4),
	"fig5":           typed(fig5),
	"fig6":           typed(fig6),
	"fig7":           typed(fig7),
	"ablate-partial": typed(ablatePartial),
	"content-matrix": typed(contentMatrix),
	"org-compare":    typed(orgCompare),
	"csopt":          typed(csopt),
	"spec-window":    typed(specWindow),
	"tree-stretch":   typed(treeStretch),
}

// runOne builds and executes one typed experiment — what the exported
// per-experiment functions (Fig1, CSOPT, ...) call.
func runOne[T any](opt Options, f func(Options) (T, *plan, error)) (T, error) {
	opt.fill()
	res, p, err := f(opt)
	if err == nil {
		err = execute(context.Background(), p, opt.Parallelism)
	}
	if err != nil {
		var zero T
		return zero, err
	}
	return res, nil
}

// RunMany runs the named experiments together and reports each, in
// names' order, with its result, rendered output, and host time (see
// Report.Elapsed). Their plans are unioned phase by phase, so each
// phase's simulations across all of them share one executor and every
// front is simulated once per group however many experiments need it.
// withChart additionally renders the ASCII chart for the experiments
// that support one.
func RunMany(names []string, opt Options, withChart bool) ([]*Report, error) {
	builds := make([]exhibit, len(names))
	for i, name := range names {
		build, ok := registry[name]
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (want one of %v, or all)", name, Names())
		}
		builds[i] = build
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}
	opt.fill()
	reps := make([]*Report, len(names))
	plans := make([]*plan, len(names))
	for i, build := range builds {
		start := time.Now()
		res, p, err := build(opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", names[i], err)
		}
		reps[i] = &Report{Name: names[i], Result: res, Elapsed: time.Since(start)}
		plans[i] = timed(p, &reps[i].Elapsed)
	}
	if err := execute(context.Background(), together(plans), opt.Parallelism); err != nil {
		return nil, err
	}
	for _, rep := range reps {
		start := time.Now()
		switch v := rep.Result.(type) {
		case string:
			rep.Table = v
		case renderer:
			rep.Table = v.Render()
		}
		if withChart {
			if c, ok := rep.Result.(chartRenderer); ok {
				rep.Chart = c.RenderChart()
			}
		}
		rep.Elapsed += time.Since(start)
	}
	return reps, nil
}

// Run executes one named experiment: RunMany of one name.
func Run(name string, opt Options, withChart bool) (*Report, error) {
	reps, err := RunMany([]string{name}, opt, withChart)
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}
