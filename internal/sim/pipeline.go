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
// by a small polled ring of reused batches (pipelined), and both
// placements compute exactly the same cycles and statistics.
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
	"sync/atomic"
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

// pipe runs the back stage on a goroutine of its own, fed through a
// single-producer, single-consumer ring of ringLen reused batches.
// The front publishes a batch by advancing published (the slot's
// length in lens first), the back frees one by advancing consumed,
// and a stage that must wait polls the other's counter rather than
// parking at once: waking a parked goroutine on an idle CPU takes
// longer than the back's work on a batch, so hand-offs that always
// parked kept the two stages from overlapping. While it polls, the
// waiting stage keeps busy the second CPU pipelines reserves.
type pipe struct {
	ring []event      // ringLen slots of batchLen events
	lens [ringLen]int // each slot's batch length, written before publishing

	published atomic.Uint64 // batches the front has handed over
	consumed  atomic.Uint64 // batches the back has finished
	closed    atomic.Bool   // no batch follows the last published one
	stopped   atomic.Bool   // the back goroutine has returned

	// front and back park their stages when a wait outlasts polling.
	front, back waiter
	done        chan struct{}

	// panicked holds a panic recovered on the back goroutine; join's
	// caller re-raises it on its own goroutine. Written before done
	// closes.
	panicked any
}

const (
	// pollYield is how many polls a waiting stage makes between
	// runtime.Gosched calls. The polls never block, so without the
	// yield a stage waiting on one P (GOMAXPROCS 1) would starve the
	// stage it waits for until preempted, along with timers and the
	// GC; every ~1K polls (about a microsecond) it lets them run.
	pollYield = 1024

	// parkAfter bounds a wait's polling. Gosched yields the P but not
	// the OS thread: when the stage waited for is off its CPU because
	// the OS gave that CPU to another thread, polling on would hold
	// the CPU it needs for a whole OS time slice, and a run stalls for
	// milliseconds. A wait this long parks instead. It exceeds a
	// batch's back work on every benchmark (canneal's, the longest,
	// is about 60 µs), so a front waiting on a busy back does not
	// park.
	parkAfter = 100 * time.Microsecond
)

// waiter parks a stage whose wait outlasted its polling budget until
// the other stage signals it.
type waiter struct {
	parked atomic.Bool
	wake   chan struct{} // one token per signal that found parked set

	// spin is how long the next wait polls before parking, owned by
	// the waiting stage: parkAfter after a wait that polling would
	// have covered, halved after each longer one. So a stage whose
	// waits keep running long, like the back of a front-bound run
	// (perlbench's waits about 200 µs a batch) or either stage on a
	// host whose other CPU is busy, soon parks at once, as a channel
	// receive would, instead of burning CPU on every wait.
	spin time.Duration
}

// await returns once ready does: it polls, yields the P every
// pollYield polls, and parks once w.spin has passed.
func (w *waiter) await(ready func() bool) {
	var start time.Time
	for polls := 1; !ready(); polls++ {
		if polls%pollYield != 0 {
			continue
		}
		if start.IsZero() {
			start = time.Now()
		}
		if time.Since(start) < w.spin {
			runtime.Gosched()
			continue
		}
		// Set parked before the last look at ready: a signal after
		// the other stage's progress either finds parked set and
		// sends a token, or came before that look, which then sees
		// the progress.
		w.parked.Store(true)
		if ready() && w.parked.CompareAndSwap(true, false) {
			break
		}
		<-w.wake
	}
	if start.IsZero() || time.Since(start) <= parkAfter {
		w.spin = parkAfter
	} else {
		w.spin /= 2
	}
}

// signal wakes the stage if it is parked; call it after making
// progress the stage may wait on.
func (w *waiter) signal() {
	if w.parked.Load() && w.parked.CompareAndSwap(true, false) {
		w.wake <- struct{}{}
	}
}

// slot returns batch i's slot of the ring, full length.
func (p *pipe) slot(i uint64) []event {
	j := int(i%ringLen) * batchLen
	return p.ring[j : j+batchLen : j+batchLen]
}

// startPipe starts b on a new goroutine and returns the pipe feeding
// it, along with the front's first empty batch.
func startPipe(b *backs) (*pipe, []event) {
	p := &pipe{
		ring:  make([]event, ringLen*batchLen),
		front: waiter{wake: make(chan struct{}, 1), spin: parkAfter},
		back:  waiter{wake: make(chan struct{}, 1), spin: parkAfter},
		done:  make(chan struct{}),
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
			p.stopped.Store(true)
			p.front.signal()
		}()
		for i := uint64(0); ; {
			if i < p.published.Load() {
				b.consume(p.slot(i)[:p.lens[i%ringLen]])
				i++
				p.consumed.Store(i)
				p.front.signal()
				continue
			}
			// closed is set after the last publish, so once it reads
			// true a second load of published is final.
			if p.closed.Load() && i == p.published.Load() {
				return
			}
			p.back.await(func() bool { return i < p.published.Load() || p.closed.Load() })
		}
	}()
	return p, p.slot(0)
}

// emit hands evs (a prefix of the slot the front was given) to the
// back stage and waits for the next slot to be free; it returns nil
// if the back stage dies first.
func (p *pipe) emit(evs []event) []event {
	n := p.published.Load()
	p.lens[n%ringLen] = len(evs)
	n++
	p.published.Store(n)
	p.back.signal()
	p.front.await(func() bool { return n-p.consumed.Load() < ringLen || p.stopped.Load() })
	if p.stopped.Load() {
		return nil
	}
	return p.slot(n)
}

// join closes the ring and waits until the back stage has consumed
// everything sent to it (or died). It is idempotent, so a deferred
// join also unwinds the back stage when the front panics.
func (p *pipe) join() {
	p.closed.Store(true)
	p.back.signal()
	<-p.done
}
