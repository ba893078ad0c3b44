package sim

import (
	"context"
	"runtime"
	"testing"

	"github.com/maps-sim/mapsim/internal/hierarchy"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/workload"
)

// Kernel benchmarks: the numbers behind BENCH_kernel.json and the
// make-check perf gate. `make bench` runs exactly these four and
// records ns/op, allocs/op, and simulated accesses per second; see
// docs/PERFORMANCE.md for how to read and regenerate the file.
//
// The workload is canneal — the paper's metadata-hostile benchmark —
// so the secure run exercises deep tree walks, not just counter hits.

// kernelInstructions keeps one benchmark iteration around 100 ms so
// short -benchtime gates still complete a few iterations.
const kernelInstructions = 200_000

// BenchmarkAccessKernel measures the bare per-access inner loop —
// workload.Next plus hierarchy.Access — without Run's setup, engine,
// or accounting, i.e. the floor every simulation pays per reference.
func BenchmarkAccessKernel(b *testing.B) {
	gen := workload.MustNew("canneal")
	gen.Reset(1)
	hier := hierarchy.MustNew(hierarchy.Default())
	var acc workload.Access
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next(&acc)
		out := hier.Access(acc.Addr, acc.Write)
		_ = out.Writebacks
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "accesses/s")
}

// benchFullRun runs one full simulation per iteration and reports
// simulated accesses per second (memory references retired through
// the hierarchy, warmup included — the unit sweeps are billed in).
func benchFullRun(b *testing.B, ctx context.Context, cfg Config) {
	b.Helper()
	b.ReportAllocs()
	var accesses uint64
	for i := 0; i < b.N; i++ {
		res, err := RunContext(ctx, cfg)
		if err != nil {
			b.Fatal(err)
		}
		accesses += res.Hier[0].Accesses
	}
	b.ReportMetric(float64(accesses)/b.Elapsed().Seconds(), "accesses/s")
}

// BenchmarkRunInsecure measures the insecure baseline: workload,
// three-level hierarchy, and DRAM timing, no secure-memory engine.
func BenchmarkRunInsecure(b *testing.B) {
	benchFullRun(b, context.Background(), Config{
		Benchmark:    "canneal",
		Instructions: kernelInstructions,
	})
}

// BenchmarkRunSecure measures the full secure stack: engine, 64 KB
// metadata cache, and speculative verification — the configuration
// the paper's sweeps spend nearly all their time in.
func BenchmarkRunSecure(b *testing.B) {
	benchFullRun(b, context.Background(), Config{
		Benchmark:    "canneal",
		Instructions: kernelInstructions,
		Secure:       true,
		Speculation:  true,
		Meta:         &metacache.Config{Size: 64 << 10, Ways: 8},
	})
}

// BenchmarkRunSecureInline is BenchmarkRunSecure forced onto one
// goroutine: the context claims every CPU for inter-run parallelism,
// as a saturated job pool does, so the back stage runs batch by batch
// on the front's goroutine. With BenchmarkRunSecure (pipelined
// whenever the machine has two CPUs to give it) the gate covers both
// placements.
func BenchmarkRunSecureInline(b *testing.B) {
	benchFullRun(b, WithConcurrency(context.Background(), runtime.NumCPU()), Config{
		Benchmark:    "canneal",
		Instructions: kernelInstructions,
		Secure:       true,
		Speculation:  true,
		Meta:         &metacache.Config{Size: 64 << 10, Ways: 8},
	})
}
