package engine

import (
	"math/bits"

	"github.com/maps-sim/mapsim/internal/secmem/ctr"
)

// counterChunk is the number of split-counter records in one chunk of
// a counterTable: 64 × 72 B ≈ 4.5 KB, one allocation per 64 written
// pages.
const counterChunk = 64

// counterTable is the engine's split-counter state: one ctr.PIBlock
// per counter block ever written, held by value. index maps a counter
// block number to its record number plus one (0: never written) and
// grows with the highest block written, never past the layout's
// counter blocks. Records live in fixed-size chunks in first-write
// order, so growing the table copies only the index, and the records
// hold no pointers for the garbage collector to trace.
type counterTable struct {
	index  []uint32
	chunks []*[counterChunk]ctr.PIBlock
	n      uint32 // records in use
	limit  int    // counter blocks in the layout: the index never grows past it
}

// block returns counter block i's record, adding a zeroed one on the
// block's first write.
func (t *counterTable) block(i uint64) *ctr.PIBlock {
	if i < uint64(len(t.index)) {
		if r := t.index[i]; r != 0 {
			r--
			return &t.chunks[r/counterChunk][r%counterChunk]
		}
	} else {
		t.grow(int(i) + 1)
	}
	r := t.n
	if r%counterChunk == 0 {
		t.chunks = append(t.chunks, new([counterChunk]ctr.PIBlock))
	}
	t.n++
	t.index[i] = t.n
	return &t.chunks[r/counterChunk][r%counterChunk]
}

// grow extends the index to need slots rounded up to a power of two,
// capped at the layout's counter blocks: a run whose writes climb to
// block n copies the index O(log n) times and holds at most 2n slots.
func (t *counterTable) grow(need int) {
	idx := make([]uint32, min(1<<bits.Len(uint(need-1)), t.limit))
	copy(idx, t.index)
	t.index = idx
}
