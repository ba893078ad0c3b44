package sim

import (
	"context"
	"runtime"
	"testing"

	"github.com/maps-sim/mapsim/internal/cache/policy"
	"github.com/maps-sim/mapsim/internal/hierarchy"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/workload"
)

// Kernel benchmarks: the numbers behind BENCH_kernel.json and the
// make-check perf gate. `make bench` runs all of them but the stage
// benchmarks BenchmarkFrontAccess and BenchmarkBackConsume, which are
// not gated, and records ns/op,
// allocs/op, and simulated accesses per second; see
// docs/PERFORMANCE.md for how to read and regenerate the file.
//
// The gated benchmarks' workload is canneal — the paper's
// metadata-hostile benchmark — so the secure run exercises deep tree
// walks, not just counter hits.

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

// Front-stage benchmark sizes: BenchmarkFrontAccess warms the
// hierarchy with frontWarm accesses, then draws frontChunk accesses at
// a time.
const (
	frontWarm  = 1 << 20
	frontChunk = 1 << 16
)

// BenchmarkFrontAccess times the front stage's hierarchy per access,
// apart from its generator, on the three perfbench workloads. Each
// chunk of accesses is drawn from the generator first with the timer
// stopped, as perfbench's staged replay does, and only the
// hierarchy.Access calls over it are timed, so a regression here
// names the hierarchy. The hierarchy is warmed on the same stream
// first, so the timed accesses see steady-state hit rates.
func BenchmarkFrontAccess(b *testing.B) {
	for _, bench := range []string{"canneal", "perlbench", "lbm"} {
		b.Run(bench, func(b *testing.B) {
			gen := workload.MustNew(bench)
			gen.Reset(1)
			hier := hierarchy.MustNew(hierarchy.Default())
			accs := make([]workload.Access, frontChunk)
			fill := func() {
				for i := range accs {
					gen.Next(&accs[i])
				}
			}
			for warm := 0; warm < frontWarm; warm += frontChunk {
				fill()
				for _, a := range accs {
					hier.Access(a.Addr, a.Write)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				b.StopTimer()
				fill()
				b.StartTimer()
				n := min(len(accs), b.N-done)
				for _, a := range accs[:n] {
					hier.Access(a.Addr, a.Write)
				}
				done += n
			}
		})
	}
}

// backInstructions is the measured length of the run whose LLC events
// BenchmarkBackConsume records: perfbench's simulation-phase length.
const backInstructions = 2_000_000

// recordEvents runs cfg's front stage alone — warmup, end-of-warmup
// marker, measured window — exactly as runGroup does, and returns a
// copy of every batch it emits and their total event count. cfg must
// be filled.
func recordEvents(b *testing.B, cfg *Config) (batches [][]event, events int) {
	b.Helper()
	cfg.Workload.Reset(cfg.Seed)
	hier, err := hierarchy.New(cfg.Hierarchy)
	if err != nil {
		b.Fatal(err)
	}
	fr := &front{
		ctx:     context.Background(),
		gen:     cfg.Workload,
		hier:    hier,
		l2Lat:   cfg.L2HitLatency,
		l3Lat:   cfg.L3HitLatency,
		baseCPI: cfg.BaseCPI,
		buf:     make([]event, batchLen),
	}
	fr.emit = func(evs []event) []event {
		batches = append(batches, append([]event(nil), evs...))
		events += len(evs)
		return evs[:batchLen]
	}
	_, err = fr.run(cfg.Warmup)
	if err == nil {
		err = fr.endWarmup()
	}
	if err == nil {
		_, err = fr.run(cfg.Instructions)
	}
	if err == nil {
		err = fr.flush()
	}
	if err != nil {
		b.Fatal(err)
	}
	return batches, events
}

// BenchmarkBackConsume times the back stage — engine, metadata cache
// and DRAM — per LLC event, apart from the front, on the three
// perfbench workloads in RunSecure's configuration. A 2M-instruction
// run's event batches are recorded once; each iteration then builds a
// fresh back end with the timer stopped and times it consuming every
// batch, so ns/event names the back stage and allocs/op counts what
// one run's back stage allocates while it simulates.
func BenchmarkBackConsume(b *testing.B) {
	for _, bench := range []string{"canneal", "perlbench", "lbm"} {
		b.Run(bench, func(b *testing.B) {
			cfg := Config{
				Benchmark:    bench,
				Instructions: backInstructions,
				Secure:       true,
				Speculation:  true,
				Meta:         &metacache.Config{Size: 64 << 10, Ways: 8},
			}
			if err := cfg.fill(); err != nil {
				b.Fatal(err)
			}
			batches, events := recordEvents(b, &cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var bk back
				if err := bk.build(&cfg, cfg.Workload.Footprint()); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, evs := range batches {
					bk.consume(evs)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
		})
	}
}

// BenchmarkBackGroup times the back stage the way a sweep's run group
// pays for it: one recorded front feeds k = 8 members that differ only
// in their metadata cache, at perfbench's grid sizes (4 KB to 512 KB,
// 8 ways) under PLRU and under LRU. Each workload's front is recorded
// once per length: 100K instructions, perfbench's sweep point, and
// 2M, long enough for dirty LLC evictions to reach the engine's
// writeback path (the sweep point has none). Each iteration builds the
// k back ends with the timer stopped and times them consuming every
// batch in turn, as runGroup does; ns/event is per member.
func BenchmarkBackGroup(b *testing.B) {
	const members = 8
	for _, bench := range []string{"canneal", "perlbench", "lbm"} {
		for _, length := range []struct {
			name         string
			instructions uint64
		}{{"100K", 100_000}, {"2M", backInstructions}} {
			for _, lru := range []bool{false, true} {
				name := bench + "/plru/" + length.name
				if lru {
					name = bench + "/lru/" + length.name
				}
				b.Run(name, func(b *testing.B) {
					cfgs := make([]Config, members)
					for i := range cfgs {
						cfgs[i] = Config{
							Benchmark:    bench,
							Instructions: length.instructions,
							Secure:       true,
							Speculation:  true,
							Meta:         &metacache.Config{Size: 4 << 10 << i, Ways: 8},
						}
						if err := cfgs[i].fill(); err != nil {
							b.Fatal(err)
						}
					}
					batches, events := recordEvents(b, &cfgs[0])
					backs := make([]back, members)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						for j := range backs {
							backs[j] = back{}
							if lru {
								cfgs[j].Meta.Policy = policy.NewLRU()
							}
							if err := backs[j].build(&cfgs[j], cfgs[0].Workload.Footprint()); err != nil {
								b.Fatal(err)
							}
						}
						b.StartTimer()
						for _, evs := range batches {
							for j := range backs {
								backs[j].consume(evs)
							}
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events*members), "ns/event")
				})
			}
		}
	}
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
