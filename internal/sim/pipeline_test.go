package sim

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/maps-sim/mapsim/internal/cache/policy"
	"github.com/maps-sim/mapsim/internal/faults"
	"github.com/maps-sim/mapsim/internal/jobs"
	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/obs"
	"github.com/maps-sim/mapsim/internal/trace"
	"github.com/maps-sim/mapsim/internal/workload"
)

// Twin tests for the two placements of a run's back stage. Each
// forces the pipelined placement by swapping cpuCount and the inline
// one through WithConcurrency, and requires bit-identical Results.
// The TestEpoch* and TestEffectiveShards names date from the
// epoch-parallel driver the pipeline replaced: the contracts they pin
// — a parallel run reproduces the single-goroutine run exactly, fails
// cleanly under an injected fault, and is chosen only when the CPU
// budget allows — are unchanged.

// forcePipelined makes the CPU budget read 64 cores for the rest of
// the calling test, so every secure run under a context without
// recorded concurrency pipelines whatever the machine (and
// GOMAXPROCS) is. Tests using it must not call t.Parallel themselves;
// their parallel subtests finish before the swap is undone.
func forcePipelined(t *testing.T) {
	t.Helper()
	restore := cpuCount
	cpuCount = func() int { return 64 }
	t.Cleanup(func() { cpuCount = restore })
}

// inlineCtx claims every CPU for inter-run parallelism, which keeps
// a run's back stage on its front's goroutine.
func inlineCtx() context.Context { return WithConcurrency(context.Background(), 1<<20) }

// runTwin runs mk's config inline and pipelined and fails the test
// unless the two Results are bit-identical. Timing describes how the
// run executed, not what it simulated, so it is zeroed before the
// comparison. mk is called once per run so stateful policies are
// never shared. The pipelined Result must also keep the traffic
// identities (checkIdentities); runTwin returns it.
func runTwin(t *testing.T, mk func() Config) *Result {
	t.Helper()
	cfg := mk()
	if cfg.Secure && !pipelines(context.Background(), &cfg) {
		t.Fatal("secure run would not pipeline; call forcePipelined")
	}
	in, err := RunContext(inlineCtx(), cfg)
	if err != nil {
		t.Fatalf("inline: %v", err)
	}
	piped, err := RunContext(context.Background(), mk())
	if err != nil {
		t.Fatalf("pipelined: %v", err)
	}
	stripExecution(in, piped)
	if !reflect.DeepEqual(in, piped) {
		t.Errorf("pipelined result diverges from inline\ninline:    %+v\npipelined: %+v", in, piped)
	}
	checkIdentities(t, cfg, piped)
	return piped
}

// fixed returns a config factory for a config without stateful
// fields (its Meta, if any, is copied per call).
func fixed(cfg Config) func() Config {
	return func() Config {
		c := cfg
		if c.Meta != nil {
			m := *c.Meta
			c.Meta = &m
		}
		return c
	}
}

// TestEpochParallelBitIdenticalAllBenchmarks is the tentpole
// contract: for every named benchmark, secure under both counter
// organizations and both cache paths (devirtualized and generic),
// the pipelined run must reproduce the inline run bit for bit.
// Insecure runs never pipeline; their twin pins that rule.
func TestEpochParallelBitIdenticalAllBenchmarks(t *testing.T) {
	forcePipelined(t)
	for _, name := range workload.Names() {
		secure := func(org memlayout.Organization, generic bool) Config {
			return Config{
				Benchmark:       name,
				Instructions:    50_000,
				Secure:          true,
				Speculation:     true,
				Org:             org,
				Meta:            &metacache.Config{Size: 64 << 10, Ways: 8},
				DisableFastPath: generic,
			}
		}
		cfgs := map[string]Config{
			"insecure":           {Benchmark: name, Instructions: 50_000},
			"secure":             secure(memlayout.PoisonIvy, false),
			"secure-generic":     secure(memlayout.PoisonIvy, true),
			"secure-sgx":         secure(memlayout.SGX, false),
			"secure-sgx-generic": secure(memlayout.SGX, true),
		}
		for variant, cfg := range cfgs {
			t.Run(name+"/"+variant, func(t *testing.T) {
				t.Parallel()
				if !cfg.Secure && pipelines(context.Background(), &cfg) {
					t.Fatal("an insecure run must stay inline")
				}
				runTwin(t, fixed(cfg))
			})
		}
	}
}

// TestEpochParallelBitIdenticalVariants covers the dimensions the
// all-benchmarks sweep holds fixed: runs without a metadata cache, a
// true-LRU metadata cache against the default PLRU, a content policy
// other than "all", partial writes, a bounded speculation window,
// and a non-unit CPI.
func TestEpochParallelBitIdenticalVariants(t *testing.T) {
	forcePipelined(t)
	meta := func() *metacache.Config { return &metacache.Config{Size: 32 << 10, Ways: 8} }
	cfgs := map[string]func() Config{
		"pi-meta": fixed(Config{
			Benchmark: "canneal", Instructions: testInstr,
			Secure: true, Speculation: true, Org: memlayout.PoisonIvy, Meta: meta(),
		}),
		"sgx-meta": fixed(Config{
			Benchmark: "streamcluster", Instructions: testInstr,
			Secure: true, Speculation: true, Org: memlayout.SGX, Meta: meta(),
		}),
		"pi-no-meta": fixed(Config{
			Benchmark: "canneal", Instructions: testInstr / 4,
			Secure: true, Org: memlayout.PoisonIvy,
		}),
		"sgx-no-meta": fixed(Config{
			Benchmark: "mcf", Instructions: testInstr / 4,
			Secure: true, Org: memlayout.SGX,
		}),
		"generic-policies": fixed(Config{
			Benchmark: "canneal", Instructions: testInstr / 4,
			Secure: true, Meta: meta(), DisableFastPath: true,
		}),
		"lru-meta": func() Config {
			m := meta()
			m.Policy = policy.NewLRU()
			return Config{Benchmark: "mcf", Instructions: testInstr / 2, Secure: true, Meta: m}
		},
		"plru-meta": func() Config {
			m := meta()
			m.Policy = policy.NewPLRU()
			return Config{Benchmark: "mcf", Instructions: testInstr / 2, Secure: true, Meta: m}
		},
		"counters-only": fixed(Config{
			Benchmark: "canneal", Instructions: testInstr / 2, Secure: true,
			Meta: &metacache.Config{Size: 32 << 10, Ways: 8, Content: metacache.CountersOnly},
		}),
		"partial-writes": fixed(Config{
			Benchmark: "lbm", Instructions: testInstr / 2, Secure: true,
			Meta: &metacache.Config{Size: 16 << 10, Ways: 8, PartialWrites: true},
		}),
		"spec-window": fixed(Config{
			Benchmark: "lbm", Instructions: testInstr / 2,
			Secure: true, Speculation: true, SpeculationWindow: 100, Meta: meta(),
		}),
		"base-cpi": fixed(Config{
			Benchmark: "milc", Instructions: testInstr / 2,
			Secure: true, Meta: meta(), BaseCPI: 1.5,
		}),
	}
	for name, mk := range cfgs {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			runTwin(t, mk)
		})
	}
}

// TestEpochParallelDeterministic pins that the pipelined placement is
// deterministic against itself.
func TestEpochParallelDeterministic(t *testing.T) {
	forcePipelined(t)
	cfg := Config{
		Benchmark: "canneal", Instructions: testInstr,
		Secure: true, Speculation: true,
		Meta: &metacache.Config{Size: 64 << 10, Ways: 8},
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stripExecution(a, b)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("pipelined path is not deterministic\nfirst:  %+v\nsecond: %+v", a, b)
	}
}

// TestEpochParallelProgress verifies a pipelined run's progress ends
// on exactly the retired-instruction total the inline run reports:
// Warmup+Instructions plus the final access's overshoot.
func TestEpochParallelProgress(t *testing.T) {
	forcePipelined(t)
	mk := func() Config {
		return Config{Benchmark: "canneal", Instructions: testInstr, Secure: true, Progress: &obs.Progress{}}
	}
	in, piped := mk(), mk()
	if _, err := RunContext(inlineCtx(), in); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(piped); err != nil {
		t.Fatal(err)
	}
	if in.Progress.Done() != piped.Progress.Done() {
		t.Errorf("progress totals differ: inline %d, pipelined %d", in.Progress.Done(), piped.Progress.Done())
	}
	s := piped.Progress.Snapshot()
	if want := uint64(testInstr/10 + testInstr); s.Total != want || s.Done < want || s.Fraction != 1 {
		t.Errorf("progress = %+v, want total %d, done ≥ total, fraction 1", s, want)
	}
}

// awaitGoroutines polls until the goroutine count is back to before,
// since exits are asynchronous with the run's return.
func awaitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEpochParallelCancellation cancels a pipelined run mid-flight
// and verifies both that ctx.Err() surfaces promptly and that the
// back stage's goroutine is gone when the run returns.
func TestEpochParallelCancellation(t *testing.T) {
	forcePipelined(t)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, Config{
			Benchmark:    "canneal",
			Instructions: 500_000_000, // far longer than the test will allow
			Secure:       true,
			Meta:         &metacache.Config{Size: 64 << 10, Ways: 8},
		})
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond) // let both stages spin up
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled run did not return")
	}
	awaitGoroutines(t, before)
}

// TestEpochFault proves a sim.step fault on a pipelined run surfaces
// as the run's error, stops the back stage, and leaves the process
// healthy for the next run.
func TestEpochFault(t *testing.T) {
	forcePipelined(t)
	defer faults.Reset()
	before := runtime.NumGoroutine()
	// The first checkpoint (64Ki instructions) is inside the measured
	// window, with the back stage under way.
	if err := faults.P("sim.step").Arm(faults.Injection{Mode: faults.ModeErr}); err != nil {
		t.Fatal(err)
	}
	cfg := fixed(Config{
		Benchmark: "canneal", Instructions: testInstr,
		Secure: true, Meta: &metacache.Config{Size: 64 << 10, Ways: 8},
	})
	if _, err := Run(cfg()); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("got %v, want injected error", err)
	}
	if fired := faults.P("sim.step").Fired(); fired == 0 {
		t.Fatal("sim.step never fired")
	}
	faults.Reset()
	awaitGoroutines(t, before)

	// The same config must run clean once disarmed.
	runTwin(t, cfg)
}

// TestPipelinedPanicIsolated: a panic on the back stage (here in a
// Tap) must not kill the process. It is re-raised on the caller's
// goroutine once the front stops, where a job pool recovers it as
// ErrPanic like any other job panic.
func TestPipelinedPanicIsolated(t *testing.T) {
	forcePipelined(t)
	before := runtime.NumGoroutine()
	pool := jobs.New(1, 1)
	defer pool.Shutdown(context.Background())
	calls := 0
	_, err := pool.RunBatch(context.Background(), 1, func(ctx context.Context) (any, error) {
		return RunContext(ctx, Config{
			Benchmark: "canneal", Instructions: testInstr, Secure: true,
			Meta: &metacache.Config{Size: 32 << 10, Ways: 8},
			Tap: func(trace.Access) {
				if calls++; calls == 1000 {
					panic("tap exploded")
				}
			},
		})
	}, 0)
	// The pool reports job failures as text; ErrPanic's message and
	// the panic counter identify a recovered panic.
	if err == nil || !strings.Contains(err.Error(), jobs.ErrPanic.Error()) || !strings.Contains(err.Error(), "tap exploded") {
		t.Fatalf("got %v, want a job failed with jobs.ErrPanic", err)
	}
	if n := pool.Stats().Panics; n != 1 {
		t.Fatalf("pool recovered %d panics, want 1", n)
	}
	pool.Shutdown(context.Background())
	awaitGoroutines(t, before)
}

// TestEffectiveShards pins the placement rule: secure runs pipeline
// only when the CPUs left over after the inter-run parallelism
// recorded on the context (nested parallelism composes
// multiplicatively) number two or more; insecure runs never do.
func TestEffectiveShards(t *testing.T) {
	restore := cpuCount
	defer func() { cpuCount = restore }()
	bg := context.Background()
	secure, insecure := &Config{Secure: true}, &Config{}
	cases := []struct {
		name string
		cpus int
		ctx  context.Context
		cfg  *Config
		want bool
	}{
		{"idle-machine", 16, bg, secure, true},
		{"insecure", 16, bg, insecure, false},
		{"one-cpu", 1, bg, secure, false},
		{"two-cpus", 2, bg, secure, true},
		{"under-pool", 16, WithConcurrency(bg, 8), secure, true},
		{"nested-pools", 16, WithConcurrency(WithConcurrency(bg, 4), 2), secure, true},
		{"nested-saturated", 16, WithConcurrency(WithConcurrency(bg, 4), 4), secure, false},
		{"pool-leaves-one", 16, WithConcurrency(bg, 9), secure, false},
		{"saturated", 2, WithConcurrency(bg, 2), secure, false},
	}
	for _, tc := range cases {
		cpuCount = func() int { return tc.cpus }
		if got := pipelines(tc.ctx, tc.cfg); got != tc.want {
			t.Errorf("%s: pipelines = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestConcurrencyFromContext covers the accessor's defaults and
// floor.
func TestConcurrencyFromContext(t *testing.T) {
	bg := context.Background()
	if got := ConcurrencyFromContext(bg); got != 1 {
		t.Errorf("unset concurrency = %d, want 1", got)
	}
	if got := ConcurrencyFromContext(WithConcurrency(bg, 0)); got != 1 {
		t.Errorf("zero-clamped concurrency = %d, want 1", got)
	}
	if got := ConcurrencyFromContext(WithConcurrency(bg, 5)); got != 5 {
		t.Errorf("concurrency = %d, want 5", got)
	}
}

// TestEpochParallelFallbacks covers the two cases the epoch driver
// ran sequentially and the pipeline does not: a Tap, which runs on
// the back stage and must see the same metadata accesses in the same
// order as inline, and a one-access run whose warmup is empty.
func TestEpochParallelFallbacks(t *testing.T) {
	forcePipelined(t)
	t.Run("tap", func(t *testing.T) {
		var in, piped []trace.Access
		mk := func(dst *[]trace.Access) func() Config {
			return func() Config {
				return Config{
					Benchmark: "canneal", Instructions: testInstr / 4,
					Secure: true, Meta: &metacache.Config{Size: 32 << 10, Ways: 8},
					Tap: func(a trace.Access) { *dst = append(*dst, a) },
				}
			}
		}
		if _, err := RunContext(inlineCtx(), mk(&in)()); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(mk(&piped)()); err != nil {
			t.Fatal(err)
		}
		if len(in) == 0 || !reflect.DeepEqual(in, piped) {
			t.Errorf("tap sequences differ: inline %d accesses, pipelined %d", len(in), len(piped))
		}
	})
	t.Run("tiny-run", func(t *testing.T) {
		// A single access: warmup defaults to Instructions/10 == 0.
		runTwin(t, fixed(Config{Benchmark: "canneal", Instructions: 1, Secure: true}))
	})
}
