// Two-stage simulation loop.
//
// A run is split where the model has no feedback: the front stage
// (workload generator + cache hierarchy) turns accesses into a stream
// of LLC events — read misses and writebacks — and the back stage
// (secure-memory engine + metadata cache + DRAM, or DRAM alone for an
// insecure run) consumes them. The front never looks at the back's
// state: a miss's memory latency is added to the clock by the back,
// and the front carries only the cycles it accrued since the previous
// event. So the two stages can run one after the other on one
// goroutine, batch by batch (inline), or concurrently on two joined
// by a small ring of reused batches (pipelined), and both placements
// compute exactly the same cycles and statistics.
//
// The warmup/measure boundary travels through the stream as a marker
// event: the front resets the hierarchy's statistics when it finishes
// warmup, and the back resets the engine's and DRAM's when it reaches
// the marker.
//
// Because the front never reads the back, one front can feed several
// backs: a run group (RunGroup) hands every batch to each member's
// back in turn, so configs that differ only in their back ends share
// the generator and hierarchy work.

package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/maps-sim/mapsim/internal/dram"
	"github.com/maps-sim/mapsim/internal/hierarchy"
	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/obs"
	"github.com/maps-sim/mapsim/internal/secmem/engine"
	"github.com/maps-sim/mapsim/internal/workload"
)

const (
	// batchLen is the number of events in one batch and ringLen the
	// number of batches in flight between the stages: 4 × 256
	// 16-byte events keep the whole ring at 16 KB, small next to a
	// run's allocations, yet let the stages run a batch or two apart.
	batchLen = 256
	ringLen  = 4

	// Flag bits in event.addr. The front rejects any access at or
	// above markBit (errAddrRange), so they never collide with an
	// address.
	wbBit   = 1 << 63 // a writeback of the block at addr
	markBit = 1 << 62 // the end-of-warmup marker (no address)
)

// errAddrRange fails a run whose workload produces an address the
// event encoding cannot carry. Named workloads and specs stay far
// below the limit; a crafted or corrupt trace need not.
var errAddrRange = errors.New("access address outside the simulated address space [0, 2^62)")

// event is one LLC read miss (the accessed address), writeback
// (block address | wbBit), or the end-of-warmup marker, with the
// front-end cycles accrued since the previous event.
type event struct {
	delta uint64
	addr  uint64
}

// cpuCount is the CPUs this process may run on. Tests swap it to
// force a placement regardless of the machine.
var cpuCount = func() int { return min(runtime.NumCPU(), runtime.GOMAXPROCS(0)) }

type concurrencyKey struct{}

// WithConcurrency records that the caller is already running n
// simulations in parallel. Nested callers compose multiplicatively
// (a 4-worker job pool whose jobs each run 2 simulations at once
// occupies 8 cores). A secure run pipelines its two stages only when
// the CPUs not claimed by that parallelism leave it a second core, so
// saturated pools keep every run on one goroutine.
func WithConcurrency(ctx context.Context, n int) context.Context {
	if n < 1 {
		n = 1
	}
	return context.WithValue(ctx, concurrencyKey{}, concurrencyFrom(ctx)*n)
}

// ConcurrencyFromContext returns the inter-run parallelism recorded
// by WithConcurrency (1 when unset).
func ConcurrencyFromContext(ctx context.Context) int { return concurrencyFrom(ctx) }

func concurrencyFrom(ctx context.Context) int {
	if v, ok := ctx.Value(concurrencyKey{}).(int); ok && v > 0 {
		return v
	}
	return 1
}

// pipelines reports whether a run of cfg under ctx gets its back
// stage on a goroutine of its own: only secure runs, whose back end
// is heavy enough to pay for the hand-off, and only when the CPU
// budget left by the caller's own parallelism is two cores or more.
// A run group pipelines when any member would.
func pipelines(ctx context.Context, cfg *Config) bool {
	return cfg.Secure && cpuCount()/concurrencyFrom(ctx) >= 2
}

// errBackStopped ends the front stage when the back stage has died;
// the caller re-raises the back's panic instead of returning it.
var errBackStopped = errors.New("sim: back stage stopped")

// front is the generator + hierarchy stage. It runs on the caller's
// goroutine and owns the run's cancellation checks, Progress ticks,
// and the sim.step fault point.
type front struct {
	ctx   context.Context
	gen   workload.Generator
	hier  *hierarchy.Hierarchy
	prog  *obs.Progress   // a one-member group's Progress, if any
	progs []*obs.Progress // a larger group's, by member; nil entries tick nothing

	l2Lat, l3Lat uint64
	baseCPI      float64

	buf        []event // the batch being filled
	n          int
	pending    uint64 // cycles accrued since the last event
	sinceCheck uint64 // instructions since the last checkpoint

	// emit hands a batch to the back stage and returns an empty one,
	// or nil once the back stage has died.
	emit func([]event) []event
}

// run retires at least limit instructions (the last access may
// overshoot, as its whole gap retires) and returns how many.
func (f *front) run(limit uint64) (uint64, error) {
	var (
		instrs     uint64
		acc        workload.Access
		gen        = f.gen
		hier       = f.hier
		l2Lat      = f.l2Lat
		l3Lat      = f.l3Lat
		baseCPI    = f.baseCPI
		unitCPI    = f.baseCPI == 1.0
		buf, n     = f.buf, f.n
		pending    = f.pending
		sinceCheck = f.sinceCheck
		err        error
	)
loop:
	for instrs < limit {
		gen.Next(&acc)
		if acc.Addr >= markBit {
			err = fmt.Errorf("%w: %#x", errAddrRange, acc.Addr)
			break
		}
		gap := uint64(acc.Gap)
		instrs += gap
		sinceCheck += gap
		if sinceCheck >= cancelCheckInterval {
			f.tick(sinceCheck)
			sinceCheck = 0
			if err = f.ctx.Err(); err != nil {
				break
			}
			if err = faultStep.Hit(); err != nil {
				break
			}
		}
		if unitCPI {
			// The common BaseCPI == 1 case stays in pure integer
			// math; the float path rounds identically for it.
			pending += gap
		} else {
			pending += uint64(float64(gap) * baseCPI)
		}
		out := hier.Access(acc.Addr, acc.Write)
		switch out.Hit {
		case hierarchy.L2:
			pending += l2Lat
		case hierarchy.L3:
			pending += l3Lat
		case hierarchy.Memory:
			buf[n] = event{pending + l3Lat, acc.Addr}
			pending = 0
			if n++; n == len(buf) {
				if buf, n = f.emit(buf), 0; buf == nil {
					err = errBackStopped
					break loop
				}
			}
		}
		for _, wb := range out.Writebacks {
			buf[n] = event{pending, wb | wbBit}
			pending = 0
			if n++; n == len(buf) {
				if buf, n = f.emit(buf), 0; buf == nil {
					err = errBackStopped
					break loop
				}
			}
		}
	}
	f.buf, f.n, f.pending, f.sinceCheck = buf, n, pending, sinceCheck
	return instrs, err
}

// tick adds n retired instructions to every member's Progress.
func (f *front) tick(n uint64) {
	if f.prog != nil {
		f.prog.Add(n)
	}
	for _, p := range f.progs {
		if p != nil {
			p.Add(n)
		}
	}
}

// endWarmup closes the warmup: the marker carries the warmup's
// trailing cycles to the back stage, and the hierarchy — front-only
// state — starts its measured statistics now.
func (f *front) endWarmup() error {
	f.buf[f.n] = event{f.pending, markBit}
	f.n++
	f.pending = 0
	if err := f.flush(); err != nil {
		return err
	}
	f.hier.ResetStats()
	return nil
}

// flush hands the partly filled batch to the back stage.
func (f *front) flush() error {
	if f.n > 0 {
		f.buf, f.n = f.emit(f.buf[:f.n]), 0
	}
	if f.buf == nil {
		return errBackStopped
	}
	return nil
}

// back is one member's engine + metadata cache + DRAM (DRAM alone
// when eng is nil) and the cycle counter its miss latencies advance.
// It runs the engine's Tap, so a Tap sees the metadata stream in
// simulation order on whichever goroutine the stage runs.
type back struct {
	eng  *engine.Engine
	meta *metacache.MetaCache
	mem  *dram.Memory

	cycles      uint64
	cyclesStart uint64 // cycles at the end of warmup
}

// build constructs the back end cfg describes for a workload of the
// given footprint.
func (b *back) build(cfg *Config, footprint uint64) error {
	mem, err := dram.New(cfg.DRAM)
	if err != nil {
		return err
	}
	b.mem = mem
	if !cfg.Secure {
		return nil
	}
	footprint = (footprint + memlayout.PageSize - 1) &^ (memlayout.PageSize - 1)
	layout, err := memlayout.New(cfg.Org, footprint)
	if err != nil {
		return err
	}
	if cfg.Meta != nil {
		if b.meta, err = metacache.New(*cfg.Meta); err != nil {
			return err
		}
	}
	b.eng, err = engine.New(engine.Config{
		Layout:            layout,
		Meta:              b.meta,
		DRAM:              mem,
		Speculation:       cfg.Speculation,
		SpeculationWindow: cfg.SpeculationWindow,
		Tap:               cfg.Tap,
	})
	return err
}

// consume simulates one batch of events.
func (b *back) consume(evs []event) {
	cycles := b.cycles
	if eng := b.eng; eng != nil {
		for _, e := range evs {
			cycles += e.delta
			switch {
			case e.addr < markBit:
				cycles += eng.Read(cycles, e.addr)
			case e.addr >= wbBit:
				eng.Writeback(cycles, e.addr&^wbBit)
			default:
				b.mark(cycles)
			}
		}
	} else {
		mem := b.mem
		for _, e := range evs {
			cycles += e.delta
			switch {
			case e.addr < markBit:
				cycles += mem.Access(cycles, memlayout.BlockOf(e.addr), false)
			case e.addr >= wbBit:
				mem.Access(cycles, e.addr&^wbBit, true)
			default:
				b.mark(cycles)
			}
		}
	}
	b.cycles = cycles
}

// mark handles the end-of-warmup marker: warmup statistics are
// discarded (state persists) and the measured window starts.
func (b *back) mark(cycles uint64) {
	b.mem.ResetStats()
	if b.eng != nil {
		b.eng.ResetStats()
	}
	b.cyclesStart = cycles
}

// backs is the back stage of a run group: every member's back, fed
// each batch in member order. It owns the warmup and measure spans,
// which describe the whole group.
type backs struct {
	ctx     context.Context
	bench   string
	members []back
	one     [1]back // members' storage in a one-member group

	// endWarmup closes the warmup span when the marker arrives;
	// endMeasure, opened then, closes the measure span.
	endWarmup  func() time.Duration
	endMeasure func() time.Duration
	warmup     time.Duration
}

// consume simulates one batch on every member.
func (s *backs) consume(evs []event) {
	for i := range s.members {
		s.members[i].consume(evs)
	}
	// The front flushes right after queuing the marker, so a batch
	// holding the marker ends with it.
	if n := len(evs); n > 0 && evs[n-1].addr == markBit {
		s.warmup = s.endWarmup()
		s.endMeasure = obs.Span(s.ctx, "measure", "benchmark", s.bench)
	}
}

// emitInline is the front's emit when the back stage runs on the
// front's goroutine: it consumes the batch at once and hands the same
// buffer back.
func (s *backs) emitInline(evs []event) []event {
	s.consume(evs)
	return evs[:batchLen]
}

// pipe runs the back stage on a goroutine of its own. Batches cycle
// through two channels: full carries filled batches to the back, free
// returns consumed ones, and both are buffered for the whole ring, so
// only the front's wait for a free batch can block.
type pipe struct {
	full, free chan []event
	done       chan struct{}
	closed     bool

	// panicked holds a panic recovered on the back goroutine; join's
	// caller re-raises it on its own goroutine. Written before done
	// closes.
	panicked any
}

// startPipe starts b on a new goroutine and returns the pipe feeding
// it, along with the front's first empty batch.
func startPipe(b *backs) (*pipe, []event) {
	p := &pipe{
		full: make(chan []event, ringLen),
		free: make(chan []event, ringLen),
		done: make(chan struct{}),
	}
	ring := make([]event, ringLen*batchLen)
	for i := 1; i < ringLen; i++ {
		p.free <- ring[i*batchLen : (i+1)*batchLen : (i+1)*batchLen]
	}
	go func() {
		defer close(p.done)
		defer func() {
			if r := recover(); r != nil {
				// Without this a panic in the engine, a policy, or a
				// Tap would kill the process instead of unwinding the
				// caller (where a job pool can recover it).
				p.panicked = r
				obs.From(b.ctx).Error("sim back stage panicked",
					"benchmark", b.bench, "panic", r, "stack", string(debug.Stack()))
			}
		}()
		for evs := range p.full {
			b.consume(evs)
			p.free <- evs
		}
	}()
	return p, ring[:batchLen:batchLen]
}

// emit hands evs to the back stage and waits for an empty batch; it
// returns nil if the back stage dies first.
func (p *pipe) emit(evs []event) []event {
	p.full <- evs
	select {
	case next := <-p.free:
		return next[:batchLen]
	case <-p.done:
		return nil
	}
}

// join closes the ring and waits until the back stage has consumed
// everything sent to it (or died). It is idempotent, so a deferred
// join also unwinds the back stage when the front panics.
func (p *pipe) join() {
	if !p.closed {
		p.closed = true
		close(p.full)
	}
	<-p.done
}
