// Package trace records metadata-access traces so that offline
// replacement policies (Belady's MIN, iterMIN, CSOPT) can replay them
// as "future knowledge", exactly as MAPS §V-B does: the trace is
// gathered under true LRU and fed back into the simulator. Trace
// holds such a trace in memory; on disk, metadata and workload traces
// alike use the one chunked streaming format of Reader and Writer.
package trace

// Access is one recorded cache access.
type Access struct {
	// Addr is the block-aligned address.
	Addr uint64
	// Write distinguishes updates from fetches.
	Write bool
	// Class carries the caller's block classification (metadata kind).
	Class uint8
	// Cost is the observed miss cost in memory accesses: 1 for a
	// hash, 1 + tree nodes fetched for a counter, as seen when the
	// trace was recorded. CSOPT weighs misses with it.
	Cost uint8
}

// Trace is an append-only access sequence.
type Trace struct {
	Accesses []Access
}

// Append records one access.
func (t *Trace) Append(a Access) { t.Accesses = append(t.Accesses, a) }

// Len reports the number of recorded accesses.
func (t *Trace) Len() int { return len(t.Accesses) }

// FutureQueues builds, for every address, the ascending list of
// positions at which it is accessed. MIN consumes these queues as its
// oracle.
func (t *Trace) FutureQueues() map[uint64][]int64 {
	q := make(map[uint64][]int64)
	for i, a := range t.Accesses {
		q[a.Addr] = append(q[a.Addr], int64(i))
	}
	return q
}

// Equal reports whether two traces are identical; iterMIN uses it to
// detect a fixed point.
func (t *Trace) Equal(o *Trace) bool {
	if len(t.Accesses) != len(o.Accesses) {
		return false
	}
	for i := range t.Accesses {
		if t.Accesses[i] != o.Accesses[i] {
			return false
		}
	}
	return true
}
