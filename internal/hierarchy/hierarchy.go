// Package hierarchy models the processor's cache hierarchy (Table I:
// 32 KB L1, 256 KB L2, 2 MB L3, all 8-way) and produces the LLC
// miss/writeback stream that drives secure memory. Lower-level dirty
// evictions cascade downward; LLC dirty evictions surface to the
// caller as memory writebacks.
package hierarchy

import (
	"fmt"

	"github.com/maps-sim/mapsim/internal/cache"
)

// Level identifies where an access was satisfied.
type Level int

// Hit levels. Memory means the access missed everywhere.
const (
	L1 Level = iota + 1
	L2
	L3
	Memory
)

// String names the level.
func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case L3:
		return "L3"
	case Memory:
		return "memory"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Config sets the geometry. The zero value is replaced by Table I's
// configuration via Default.
type Config struct {
	L1Size, L1Ways int
	L2Size, L2Ways int
	L3Size, L3Ways int
	// DisableFastPath runs every level as a cache.Cache whose true
	// LRU (policy.NewLRU()) goes through the generic Policy
	// interface, instead of the levels' own recency-ordered sets.
	// Results are bit-identical by contract; the twin tests use this
	// reference path to prove it.
	DisableFastPath bool
}

// Default returns the paper's Table I hierarchy.
func Default() Config {
	return Config{
		L1Size: 32 << 10, L1Ways: 8,
		L2Size: 256 << 10, L2Ways: 8,
		L3Size: 2 << 20, L3Ways: 8,
	}
}

// Outcome reports one access's journey.
type Outcome struct {
	// Hit is the level that supplied the data.
	Hit Level
	// Writebacks lists dirty blocks evicted from the LLC to memory
	// as a consequence of this access (at most a handful).
	Writebacks []uint64
}

// Hierarchy is a three-level, write-back, write-allocate,
// non-inclusive cache stack using true LRU at every level.
type Hierarchy struct {
	l1, l2, l3 *level
	// scratch avoids an allocation per access.
	scratch []uint64
}

// New builds a hierarchy. Each level must satisfy cache.Geometry.
func New(cfg Config) (*Hierarchy, error) {
	l1, err := newLevel(cfg.L1Size, cfg.L1Ways, cfg.DisableFastPath)
	if err != nil {
		return nil, fmt.Errorf("hierarchy: L1: %w", err)
	}
	l2, err := newLevel(cfg.L2Size, cfg.L2Ways, cfg.DisableFastPath)
	if err != nil {
		return nil, fmt.Errorf("hierarchy: L2: %w", err)
	}
	l3, err := newLevel(cfg.L3Size, cfg.L3Ways, cfg.DisableFastPath)
	if err != nil {
		return nil, fmt.Errorf("hierarchy: L3: %w", err)
	}
	return &Hierarchy{l1: l1, l2: l2, l3: l3}, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Hierarchy {
	h, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// L1Stats, L2Stats and L3Stats expose per-level counters.
func (h *Hierarchy) L1Stats() cache.Stats { return h.l1.stats() }

// L2Stats returns the second-level counters.
func (h *Hierarchy) L2Stats() cache.Stats { return h.l2.stats() }

// L3Stats returns the last-level counters.
func (h *Hierarchy) L3Stats() cache.Stats { return h.l3.stats() }

// ResetStats zeroes all levels' counters (contents persist), for
// post-warmup measurement.
func (h *Hierarchy) ResetStats() {
	h.l1.resetStats()
	h.l2.resetStats()
	h.l3.resetStats()
}

// LLCSize reports the last-level capacity in bytes.
func (h *Hierarchy) LLCSize() int { return h.l3.sizeBytes() }

// Access runs one data reference through the hierarchy. The returned
// Outcome's Writebacks slice is reused across calls; callers must
// consume it before the next Access.
func (h *Hierarchy) Access(addr uint64, write bool) Outcome {
	h.scratch = h.scratch[:0]
	out := Outcome{}

	hit1, ev1, dirty1 := h.l1.access(addr, write)
	if dirty1 {
		h.writeLower(h.l2, ev1)
	}
	if hit1 {
		out.Hit = L1
		out.Writebacks = h.scratch
		return out
	}

	hit2, ev2, dirty2 := h.l2.access(addr, false)
	if dirty2 {
		h.writeLower(h.l3, ev2)
	}
	if hit2 {
		out.Hit = L2
		out.Writebacks = h.scratch
		return out
	}

	hit3, ev3, dirty3 := h.l3.access(addr, false)
	if dirty3 {
		h.scratch = append(h.scratch, ev3)
	}
	if hit3 {
		out.Hit = L3
	} else {
		out.Hit = Memory
	}
	out.Writebacks = h.scratch
	return out
}

// writeLower installs a dirty block evicted from an upper level into
// the next level down, cascading further evictions. Writes into the
// LLC may push dirty blocks to memory.
func (h *Hierarchy) writeLower(l *level, addr uint64) {
	_, evAddr, evDirty := l.access(addr, true)
	if !evDirty {
		return
	}
	if l == h.l2 {
		h.writeLower(h.l3, evAddr)
		return
	}
	h.scratch = append(h.scratch, evAddr)
}

// FlushWritebacks empties every level and returns the blocks of its
// dirty lines: the writebacks still owed to memory if the run stopped
// here. No simulation calls it, because a Result counts only the
// writebacks that happened during the run; it lets tests check that
// writeback accounting balances (every block written back was stored,
// and every stored block is written back). The blocks come L1 first,
// then L2, then L3; within a level set by set, and within a set most
// recently used first. With DisableFastPath each level's share is in
// set/way order instead (cache.Cache.Flush).
func (h *Hierarchy) FlushWritebacks() []uint64 {
	out := h.l1.flushDirty(nil)
	out = h.l2.flushDirty(out)
	return h.l3.flushDirty(out)
}
