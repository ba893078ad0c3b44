package engine

import (
	"math/bits"

	"github.com/maps-sim/mapsim/internal/secmem/ctr"
)

const (
	// counterLeaf is the number of index slots in one leaf of a
	// counterTable: 2048 × 4 B = 8 KB, covering 8 MB of data.
	counterLeaf = 2048
	// counterChunk is the number of records in one chunk of either
	// tier: 128 × 32 B = 4 KB of nibble records, 128 × 72 B ≈ 9 KB of
	// full ones.
	counterChunk = 128
	// promoted marks an index slot that holds a full record's number.
	promoted = 1 << 31
)

// counterTable is the engine's split-counter state, one entry per
// counter block ever written, in two tiers. A page starts as a nibbles
// record: its 64 minors, each below 16, under a major of 0. The write
// that would take one of them to 16 promotes the page to a full
// ctr.PIBlock, which then counts as hardware does, overflow included,
// for the rest of the run.
//
// The index maps a counter block number to its record: 0 for never
// written, the nibble record's number plus one, or promoted | the full
// record's number. It is two-level: leaves are allocated on the first
// write they cover, and the leaf table grows to the power of two
// covering the highest leaf, capped at the layout's, so the index is
// bounded by the pages written rather than by the highest one.
// Records of each tier live in fixed-size chunks in the order they
// were added, so nothing is copied as the table grows and the records
// hold no pointers for the garbage collector to trace. A promoted
// page's nibble record stays behind unused: promotions are rare (in
// 2M- and 10M-instruction runs of canneal, lbm, perlbench, mcf,
// omnetpp and libquantum no block is written more than 14 times), so
// reusing it would not pay for the code.
type counterTable struct {
	leaves []*[counterLeaf]uint32
	small  records[nibbles]
	full   records[ctr.PIBlock]
	limit  int // counter blocks in the layout: the index never covers more
}

// increment advances the minor for slot in counter block i, adding
// the block's record on its first write, and reports a minor overflow.
func (t *counterTable) increment(i uint64, slot int) (overflow bool) {
	l := i / counterLeaf
	if l >= uint64(len(t.leaves)) {
		t.grow(int(l) + 1)
	}
	leaf := t.leaves[l]
	if leaf == nil {
		leaf = new([counterLeaf]uint32)
		t.leaves[l] = leaf
	}
	e := &leaf[i%counterLeaf]
	switch r := *e; {
	case r&promoted != 0:
		return t.full.at(r &^ promoted).Increment(slot)
	case r != 0:
		if !t.small.at(r - 1).bump(slot) {
			return t.promote(e, slot)
		}
	default:
		r = t.small.add()
		t.small.at(r).bump(slot)
		*e = r + 1
	}
	return false
}

// promote moves the page whose index slot is e from its nibble record
// to a new full record with the same minors and a major of 0, and
// applies the write to slot that its nibble could not count.
func (t *counterTable) promote(e *uint32, slot int) (overflow bool) {
	f := t.full.add()
	b := t.full.at(f)
	t.small.at(*e - 1).unpack(&b.Minor)
	*e = promoted | f
	return b.Increment(slot)
}

// grow extends the leaf table to need leaves rounded up to a power of
// two, capped at the leaves covering the layout's counter blocks.
func (t *counterTable) grow(need int) {
	capLeaves := (t.limit + counterLeaf - 1) / counterLeaf
	leaves := make([]*[counterLeaf]uint32, min(1<<bits.Len(uint(need-1)), capLeaves))
	copy(leaves, t.leaves)
	t.leaves = leaves
}

// nibbles is a page's minors while every one is below 16: slot s is
// the four bits at 4·(s%16) of word s/16.
type nibbles [ctr.PIMinors / 16]uint64

// bump counts one more write to slot and reports true, or changes
// nothing and reports false when the slot already counts 15.
func (m *nibbles) bump(slot int) bool {
	w, sh := &m[slot/16], uint(slot%16)*4
	if *w>>sh&15 == 15 {
		return false
	}
	*w += 1 << sh
	return true
}

// unpack writes the record's minors into minor.
func (m *nibbles) unpack(minor *[ctr.PIMinors]uint8) {
	for s := range minor {
		minor[s] = uint8(m[s/16] >> (uint(s%16) * 4) & 15)
	}
}

// records holds records by value in chunks of counterChunk, numbered
// from 0 in the order they were added.
type records[T any] struct {
	chunks []*[counterChunk]T
	n      uint32 // records added
}

// at returns record r.
func (p *records[T]) at(r uint32) *T { return &p.chunks[r/counterChunk][r%counterChunk] }

// add appends a zeroed record and returns its number.
func (p *records[T]) add() uint32 {
	if p.n%counterChunk == 0 {
		p.chunks = append(p.chunks, new([counterChunk]T))
	}
	p.n++
	return p.n - 1
}
