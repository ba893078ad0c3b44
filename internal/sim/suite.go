package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/maps-sim/mapsim/internal/obs"
	"github.com/maps-sim/mapsim/internal/stats"
	"github.com/maps-sim/mapsim/internal/workload"
)

// SuiteResult aggregates one configuration across a benchmark suite.
type SuiteResult struct {
	// PerBench maps benchmark name to its result.
	PerBench map[string]*Result `json:"per_bench"`
	// Order preserves the requested benchmark order for reports.
	Order []string `json:"order"`

	// Geomeans across the suite.
	GeomeanLLCMPKI  float64 `json:"geomean_llc_mpki"`
	GeomeanMetaMPKI float64 `json:"geomean_meta_mpki"`
	GeomeanIPC      float64 `json:"geomean_ipc"`
	GeomeanED2      float64 `json:"geomean_ed2"`
	// GeomeanMemAccesses is the geometric mean of per-benchmark DRAM
	// accesses (reads + writes).
	GeomeanMemAccesses float64 `json:"geomean_mem_accesses"`

	// Wall is the fan-out's host wall-clock time (not simulated
	// cycles); it serializes as nanoseconds.
	Wall time.Duration `json:"wall_ns"`
}

// RunSuite runs the same configuration (everything except Benchmark /
// Workload) across the given benchmarks in parallel. An empty
// benchmark list selects the full registry.
func RunSuite(base Config, benchmarks []string, parallelism int) (*SuiteResult, error) {
	return RunSuiteContext(context.Background(), base, benchmarks, parallelism)
}

// RunSuiteContext is RunSuite under a context: cancelling ctx stops
// every in-flight run. The fan-out also cancels itself as soon as any
// benchmark fails — queued runs never start and in-flight ones stop
// at their next cancellation check — so a bad config does not burn a
// suite's worth of simulation before reporting.
func RunSuiteContext(ctx context.Context, base Config, benchmarks []string, parallelism int) (*SuiteResult, error) {
	if len(benchmarks) == 0 {
		benchmarks = workload.Names()
	}
	if base.WorkloadSpec != nil || base.TracePath != "" {
		// A suite varies Benchmark across the registry; a base that pins
		// the workload another way would silently override every entry.
		return nil, fmt.Errorf("sim: suite base must not set WorkloadSpec or TracePath")
	}
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	// Record the fan-out width so each run pipelines only into the
	// CPU budget left over after the suite's own concurrency (see
	// pipelines).
	ctx = WithConcurrency(ctx, parallelism)
	endSuite := obs.Span(ctx, "suite", "benchmarks", len(benchmarks), "parallelism", parallelism)
	if base.Progress != nil {
		// Publish the whole suite's instruction total before any run
		// starts, so observers see a stable denominator. Each run's
		// own EnsureTotal then keeps its hands off it.
		per := base
		per.Benchmark = "-" // a suite base legitimately omits Benchmark
		per.fillDefaults()
		base.Progress.Start(uint64(len(benchmarks)) * (per.Warmup + per.Instructions))
	}
	res := &SuiteResult{
		PerBench: make(map[string]*Result, len(benchmarks)),
		Order:    append([]string{}, benchmarks...),
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
		cancel() // abandon the rest of the fan-out
	}
	for _, b := range benchmarks {
		wg.Add(1)
		sem <- struct{}{}
		go func(b string) {
			defer wg.Done()
			defer func() { <-sem }()
			if ctx.Err() != nil {
				return // a sibling already failed; don't start
			}
			cfg := base
			cfg.Benchmark = b
			cfg.Workload = nil // force a private generator per run
			if cfg.Meta != nil {
				metaCopy := *cfg.Meta
				// Policies and partition schemes are stateful; a
				// shared instance across concurrent runs would race.
				if metaCopy.Policy != nil || metaCopy.Partition != nil {
					fail(fmt.Errorf("sim: RunSuite requires nil Meta.Policy and Meta.Partition (stateful instances cannot be shared across runs)"))
					return
				}
				cfg.Meta = &metaCopy
			}
			r, err := RunContext(ctx, cfg)
			if err != nil {
				// fail keeps only the first error, so runs cancelled
				// as victims of an earlier failure never mask it.
				fail(fmt.Errorf("sim: %s: %w", b, err))
				return
			}
			mu.Lock()
			res.PerBench[b] = r
			mu.Unlock()
		}(b)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res.computeGeomeans(benchmarks)
	res.Wall = endSuite()
	return res, nil
}

// computeGeomeans fills the suite-level geometric means from the
// per-benchmark results.
func (s *SuiteResult) computeGeomeans(benchmarks []string) {
	var llc, meta, ipc, ed2, mem []float64
	for _, b := range benchmarks {
		r := s.PerBench[b]
		if r == nil {
			continue
		}
		llc = append(llc, r.LLCMPKI)
		meta = append(meta, r.MetaMPKI)
		ipc = append(ipc, r.IPC)
		ed2 = append(ed2, r.ED2)
		mem = append(mem, float64(r.DRAM.Accesses()))
	}
	s.GeomeanLLCMPKI = GeomeanPositive(llc)
	s.GeomeanMetaMPKI = GeomeanPositive(meta)
	s.GeomeanIPC = GeomeanPositive(ipc)
	s.GeomeanED2 = GeomeanPositive(ed2)
	s.GeomeanMemAccesses = GeomeanPositive(mem)
}

// GeomeanPositive is stats.Geomean restricted to the strictly positive
// entries. A zero per-benchmark value — MetaMPKI in an insecure suite,
// LLCMPKI for a cache-resident workload — would otherwise be clamped
// to Geomean's 1e-12 log floor and drag the whole mean to nonsense.
// With no positive entries the mean is 0. The suite geomeans and the
// sweep per-axis aggregates share these semantics.
func GeomeanPositive(vals []float64) float64 {
	pos := make([]float64, 0, len(vals))
	for _, v := range vals {
		if v > 0 {
			pos = append(pos, v)
		}
	}
	if len(pos) == 0 {
		return 0
	}
	return stats.Geomean(pos)
}

// Render prints a per-benchmark summary table with the geomean row.
func (s *SuiteResult) Render() string {
	var t stats.Table
	t.AddRow("benchmark", "LLC MPKI", "meta MPKI", "IPC", "mem accesses")
	for _, b := range s.Order {
		r := s.PerBench[b]
		if r == nil {
			// A partial result — e.g. a JSON-decoded SuiteResult from
			// mapsd that is missing a benchmark — renders a placeholder
			// row instead of panicking, matching computeGeomeans's nil
			// guard.
			t.AddRow(b, "-", "-", "-", "-")
			continue
		}
		t.AddRow(b,
			fmt.Sprintf("%.2f", r.LLCMPKI),
			fmt.Sprintf("%.2f", r.MetaMPKI),
			fmt.Sprintf("%.3f", r.IPC),
			fmt.Sprintf("%d", r.DRAM.Accesses()))
	}
	t.AddRow("geomean",
		fmt.Sprintf("%.2f", s.GeomeanLLCMPKI),
		fmt.Sprintf("%.2f", s.GeomeanMetaMPKI),
		fmt.Sprintf("%.3f", s.GeomeanIPC),
		fmt.Sprintf("%.0f", s.GeomeanMemAccesses))
	return t.String()
}
