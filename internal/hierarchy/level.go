package hierarchy

import (
	"github.com/maps-sim/mapsim/internal/cache"
	"github.com/maps-sim/mapsim/internal/cache/policy"
)

// Line word flags. A level stores each line as one word, block |
// lineValid | lineDirty; the low bits are free because blocks are
// cache.BlockSize aligned. An empty way is the zero word.
const (
	lineValid = 1 << 0
	lineDirty = 1 << 1
)

// level is one write-back, write-allocate, true-LRU cache level. A
// true-LRU set is fully described by the recency order of its lines,
// so each set is ways line words, most recently used first: a hit at
// position i rotates the set's first i+1 words right by one, and a
// miss shifts the whole set down one, puts the new block in front and
// evicts the word that falls off the end. There are no clock stamps,
// no victim scan and no valid bitmap. The hierarchy never invalidates
// a single line, so valid lines always form a prefix of the set, and
// a miss evicts nothing while a way is still free, as cache.Cache
// with policy.LRU does.
//
// When ref is set (Config.DisableFastPath) the level delegates every
// access to that cache.Cache running policy.LRU through the generic
// Policy interface: the reference model the twin tests hold the
// recency-ordered sets to.
type level struct {
	lines   []uint64 // sets × ways line words, each set MRU first
	ways    int
	setMask uint64 // sets-1; the set count is a power of two
	counts  cache.Stats
	ref     *cache.Cache
}

// newLevel builds a level of size bytes and the given associativity.
// It accepts exactly the geometries cache.New accepts, with the same
// errors.
func newLevel(size, ways int, reference bool) (*level, error) {
	sets, err := cache.Geometry(size, ways)
	if err != nil {
		return nil, err
	}
	l := &level{ways: ways, setMask: uint64(sets - 1)}
	if reference {
		l.ref, err = cache.New(size, ways, policy.NewLRU())
		return l, err
	}
	l.lines = make([]uint64, sets*ways)
	return l, nil
}

// access looks addr up, filling it on a miss, and marks the line dirty
// when write is set. It reports whether the block was present and,
// when the fill evicted a dirty line, that line's block (evDirty set);
// clean evictions are counted but not reported.
func (l *level) access(addr uint64, write bool) (hit bool, evAddr uint64, evDirty bool) {
	if l.ref != nil {
		r := l.ref.Access(addr, write, cache.WholeBlock)
		return r.Hit, r.Evicted.Addr, r.Evicted.Valid && r.Evicted.Dirty
	}
	key := addr&^(cache.BlockSize-1) | lineValid
	base := int(addr/cache.BlockSize&l.setMask) * l.ways
	s := l.lines[base : base+l.ways : base+l.ways]
	for i, w := range s {
		if w&^lineDirty == key {
			l.counts.Hits++
			if write {
				w |= lineDirty
			}
			if i > 0 {
				copy(s[1:i+1], s[:i])
			}
			s[0] = w
			return true, 0, false
		}
	}
	l.counts.Misses++
	last := s[len(s)-1]
	copy(s[1:], s[:len(s)-1])
	if write {
		key |= lineDirty
	}
	s[0] = key
	if last == 0 {
		return false, 0, false
	}
	l.counts.Evictions++
	if last&lineDirty == 0 {
		return false, 0, false
	}
	l.counts.DirtyEvicts++
	return false, last &^ (lineValid | lineDirty), true
}

// stats returns a copy of the level's counters. Accesses and Inserts
// are derived on read, as every access hits or misses and every miss
// fills.
func (l *level) stats() cache.Stats {
	if l.ref != nil {
		return l.ref.Stats()
	}
	s := l.counts
	s.Accesses = s.Hits + s.Misses
	s.Inserts = s.Misses
	return s
}

// resetStats zeroes the counters; contents persist.
func (l *level) resetStats() {
	if l.ref != nil {
		l.ref.ResetStats()
	}
	l.counts = cache.Stats{}
}

// sizeBytes reports the capacity.
func (l *level) sizeBytes() int {
	return (int(l.setMask) + 1) * l.ways * cache.BlockSize
}

// flushDirty empties the level and appends the block of every dirty
// line to out. The order is set by set and, within a set, most
// recently used first; the reference path returns cache.Cache.Flush's
// set/way order instead, so compare the two as sets.
func (l *level) flushDirty(out []uint64) []uint64 {
	if l.ref != nil {
		for _, ln := range l.ref.Flush() {
			out = append(out, ln.Addr)
		}
		return out
	}
	for i, w := range l.lines {
		if w&lineDirty != 0 {
			out = append(out, w&^(lineValid|lineDirty))
		}
		l.lines[i] = 0
	}
	return out
}
