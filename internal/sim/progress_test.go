package sim

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"github.com/maps-sim/mapsim/internal/obs"
)

func progressCfg(p *obs.Progress) Config {
	return Config{
		Benchmark:    "fft",
		Instructions: 4 * cancelCheckInterval,
		Warmup:       cancelCheckInterval,
		Secure:       true,
		Progress:     p,
	}
}

// A run must publish its total and finish with done ≥ warmup +
// measured instructions (step granularity can overshoot slightly).
func TestRunTicksProgress(t *testing.T) {
	var p obs.Progress
	cfg := progressCfg(&p)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	s := p.Snapshot()
	wantTotal := cfg.Warmup + cfg.Instructions
	if s.Total != wantTotal {
		t.Errorf("total = %d, want %d", s.Total, wantTotal)
	}
	if s.Done < wantTotal {
		t.Errorf("done = %d, want ≥ %d", s.Done, wantTotal)
	}
	if s.Fraction != 1 {
		t.Errorf("fraction = %v, want 1", s.Fraction)
	}
}

// Mid-run observations must be monotonically non-decreasing — the
// contract behind mapsd's GET /v1/jobs/{id}/progress.
func TestProgressMonotonicMidRun(t *testing.T) {
	var p obs.Progress
	cfg := progressCfg(&p)
	cfg.Instructions = 40 * cancelCheckInterval

	done := make(chan error, 1)
	go func() {
		_, err := Run(cfg)
		done <- err
	}()

	var last uint64
	var observations int
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if observations == 0 {
				t.Skip("run finished before any observation; machine too fast for this assertion")
			}
			if final := p.Done(); final < last {
				t.Errorf("final done %d below observed %d", final, last)
			}
			return
		default:
		}
		cur := p.Done()
		if cur < last {
			t.Fatalf("progress went backwards: %d after %d", cur, last)
		}
		if cur > last {
			observations++
		}
		last = cur
		time.Sleep(100 * time.Microsecond)
	}
}

// The disabled-progress hot loop must allocate exactly as much as the
// enabled one — i.e. the progress machinery is allocation-free, so
// leaving Progress nil cannot cost anything either. Run-to-run the
// simulator's allocations are deterministic (same config, same seed),
// which is what makes the equality meaningful. The runs are secure
// and pipelined, so the back stage's goroutine and ring are counted
// too.
func TestProgressAllocParity(t *testing.T) {
	forcePipelined(t)
	cfgOff := progressCfg(nil)
	var p obs.Progress
	cfgOn := progressCfg(&p)

	run := func(cfg Config) func() {
		return func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(cfgOff)() // warm any lazy global state before counting
	// Averaged over enough runs that the runtime's occasional fresh
	// goroutine record for the back stage (free ones are cached per
	// P, so whether one is at hand depends on scheduling) rounds away,
	// while one allocation per run still shows.
	const runs = 20
	off := testing.AllocsPerRun(runs, run(cfgOff))
	on := testing.AllocsPerRun(runs, run(cfgOn))
	if off != on {
		t.Errorf("allocs differ: progress disabled %v, enabled %v", off, on)
	}
}

// Cancellation mid-run must leave progress monotone (no rollback).
func TestProgressSurvivesCancel(t *testing.T) {
	var p obs.Progress
	cfg := progressCfg(&p)
	cfg.Instructions = 1000 * cancelCheckInterval
	ctx, cancel := context.WithCancel(context.Background())
	var sampled atomic.Uint64
	go func() {
		for sampled.Load() == 0 {
			sampled.Store(p.Done())
		}
		cancel()
	}()
	_, err := RunContext(ctx, cfg)
	cancel()
	if err == nil {
		t.Skip("run finished before cancellation landed")
	}
	if p.Done() < sampled.Load() {
		t.Errorf("done rolled back after cancel: %d < %d", p.Done(), sampled.Load())
	}
}

func benchRun(b *testing.B, p *obs.Progress) {
	b.Helper()
	cfg := progressCfg(p)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunProgressDisabled vs BenchmarkRunProgressEnabled: the
// pair demonstrates the disabled path's zero-cost claim (allocs/op
// must match; ns/op within noise). `go test -bench Progress ./internal/sim`.
func BenchmarkRunProgressDisabled(b *testing.B) { benchRun(b, nil) }

// BenchmarkRunProgressEnabled is the enabled-side counterpart.
func BenchmarkRunProgressEnabled(b *testing.B) {
	var p obs.Progress
	benchRun(b, &p)
}
