package obs

import (
	"sync/atomic"
	"time"
)

// Progress is a lock-free tracker of how far a long computation has
// come, in whatever unit the producer ticks it with (the simulator
// uses retired instructions). One goroutine — or several, as in a
// suite's runs — calls Add from its hot loop; any number of readers
// call Snapshot concurrently.
//
// The producer-side operations are a single atomic each, and the
// tracker is meant to be ticked coarsely (the simulator ticks every
// 64Ki instructions from the checkpoints it already takes for
// cancellation), so enabling progress costs one uncontended atomic
// add per ~100µs of simulated work and disabling it costs a nil
// pointer check. Neither path allocates.
//
// The zero value is ready to use.
type Progress struct {
	done  atomic.Uint64
	total atomic.Uint64
	start atomic.Int64 // unix nanos of the first Add/Start; 0 = not started
}

// Start marks the work as begun and publishes its expected total.
// Calling it again replaces the total (a caller that refines its
// estimate) but keeps the original start time.
func (p *Progress) Start(total uint64) {
	p.total.Store(total)
	p.markStarted()
}

// EnsureTotal publishes total only if none is set yet. Workers that
// share one Progress use it so the coordinator's whole-batch total
// (set first, via Start) is not overwritten by each worker's
// per-item total.
func (p *Progress) EnsureTotal(total uint64) {
	p.total.CompareAndSwap(0, total)
	p.markStarted()
}

func (p *Progress) markStarted() {
	if p.start.Load() == 0 {
		p.start.CompareAndSwap(0, time.Now().UnixNano())
	}
}

// Add ticks n more units done. It is the hot-path operation: one
// atomic add, no allocation, safe from many goroutines.
func (p *Progress) Add(n uint64) { p.done.Add(n) }

// Done returns the units completed so far.
func (p *Progress) Done() uint64 { return p.done.Load() }

// Snapshot is a consistent-enough point-in-time view of a Progress.
// Done can exceed Total when the producer's estimate was low; Fraction
// is clamped to 1.
type Snapshot struct {
	// Done is the units completed so far.
	Done uint64 `json:"done"`
	// Total is the expected amount of work; 0 means unknown.
	Total uint64 `json:"total"`
	// Fraction is Done/Total in [0,1]; 0 when Total is unknown.
	Fraction float64 `json:"fraction"`
	// Elapsed is the time since the first tick; 0 before work starts.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Remaining linearly extrapolates time left from Done, Total, and
	// Elapsed; 0 when any of them is unknown or the work is complete.
	Remaining time.Duration `json:"remaining_ns"`
}

// Snapshot reads the current state. Reads are independent atomics —
// a snapshot taken mid-tick can be one tick stale, never torn in a
// way that makes Done regress.
func (p *Progress) Snapshot() Snapshot {
	s := Snapshot{
		Done:  p.done.Load(),
		Total: p.total.Load(),
	}
	if start := p.start.Load(); start != 0 {
		s.Elapsed = time.Duration(time.Now().UnixNano() - start)
	}
	if s.Total > 0 {
		s.Fraction = float64(s.Done) / float64(s.Total)
		if s.Fraction > 1 {
			s.Fraction = 1
		}
		if s.Done > 0 && s.Done < s.Total && s.Elapsed > 0 {
			perUnit := float64(s.Elapsed) / float64(s.Done)
			s.Remaining = time.Duration(perUnit * float64(s.Total-s.Done))
		}
	}
	return s
}
