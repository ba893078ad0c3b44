package engine

import (
	"math/rand"
	"testing"

	"github.com/maps-sim/mapsim/internal/dram"
	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/metacache"
)

// bypassEngine builds an engine whose metadata cache admits only the
// given content.
func bypassEngine(t *testing.T, content metacache.ContentPolicy) (*Engine, *memlayout.Layout) {
	t.Helper()
	layout := memlayout.MustNew(memlayout.PoisonIvy, 64<<20)
	meta := metacache.MustNew(metacache.Config{Size: 64 << 10, Ways: 8, Content: content})
	return MustNew(Config{Layout: layout, Meta: meta, DRAM: dram.MustNew(dram.Default())}), layout
}

func TestBypassedCounterWriteHitsMemory(t *testing.T) {
	// Hashes-only cache: counter writes must read-modify-write memory
	// and update the tree immediately.
	e, layout := bypassEngine(t, metacache.HashesOnly)
	e.Writeback(0, 4096)
	s := e.Stats()
	if s.Mem.CounterReads != 1 || s.Mem.CounterWrites != 1 {
		t.Errorf("counter RMW traffic: %+v", s.Mem)
	}
	// Immediate tree update through every level (tree also bypassed).
	if s.Mem.TreeWrites != uint64(layout.TreeLevels()) {
		t.Errorf("tree writes = %d, want %d", s.Mem.TreeWrites, layout.TreeLevels())
	}
	// The engine still counted the bypass in metadata-cache stats.
	if e.Meta().KindStats(memlayout.KindCounter).Bypassed == 0 {
		t.Error("bypassed counter access not recorded")
	}
}

func TestBypassedCounterWriteWithCachedTree(t *testing.T) {
	// Counters bypassed, tree cached: tree updates land in the cache
	// (dirty), not in memory, until evicted.
	e, _ := bypassEngine(t, metacache.HashesTree)
	e.Writeback(0, 4096)
	s := e.Stats()
	if s.Mem.CounterWrites != 1 {
		t.Errorf("counter writes = %d", s.Mem.CounterWrites)
	}
	// The leaf update was absorbed by the cache; deferred levels
	// flush later.
	before := s.Mem.TreeWrites
	e.Flush(0)
	after := e.Stats().Mem.TreeWrites
	if after <= before {
		t.Error("deferred tree updates never flushed")
	}
}

func TestBypassedHashWriteHitsMemory(t *testing.T) {
	e, _ := bypassEngine(t, metacache.CountersTree)
	e.Writeback(0, 4096)
	s := e.Stats()
	if s.Mem.HashReads != 1 || s.Mem.HashWrites != 1 {
		t.Errorf("hash RMW traffic: %+v", s.Mem)
	}
	if e.Meta().KindStats(memlayout.KindHash).Bypassed == 0 {
		t.Error("bypassed hash access not recorded")
	}
}

func TestBypassedCounterReadWalksCachedTree(t *testing.T) {
	// Counters bypassed but tree cached: first read walks and caches
	// the tree; the second read in a distant page re-fetches the
	// counter but stops the walk at the shared cached ancestor.
	e, layout := bypassEngine(t, metacache.HashesTree)
	e.Read(0, 0)
	first := e.Stats().Mem
	if first.TreeReads != uint64(layout.TreeLevels()) {
		t.Fatalf("first walk fetched %d levels", first.TreeReads)
	}
	e.Read(0, 32<<20)
	second := e.Stats().Mem
	if second.CounterReads != first.CounterReads+1 {
		t.Error("bypassed counter not refetched")
	}
	delta := second.TreeReads - first.TreeReads
	if delta == 0 || delta >= uint64(layout.TreeLevels()) {
		t.Errorf("second walk fetched %d levels, want partial", delta)
	}
}

func TestWriteTrafficConservedAcrossContents(t *testing.T) {
	// Every content policy must issue at least one data write and one
	// counter update (cached or not) per writeback; none may lose the
	// hash update.
	for _, content := range []metacache.ContentPolicy{
		metacache.AllTypes, metacache.CountersOnly, metacache.HashesOnly,
		metacache.TreeOnly, metacache.CountersHashes, metacache.CountersTree, metacache.HashesTree,
	} {
		e, _ := bypassEngine(t, content)
		for i := uint64(0); i < 50; i++ {
			e.Writeback(0, i*memlayout.PageSize)
		}
		e.Flush(0)
		s := e.Stats()
		if s.Mem.DataWrites != 50 {
			t.Errorf("%v: data writes = %d, want 50", content, s.Mem.DataWrites)
		}
		if s.Mem.CounterWrites == 0 {
			t.Errorf("%v: counter updates never reached memory", content)
		}
		if s.Mem.HashWrites == 0 {
			t.Errorf("%v: hash updates never reached memory", content)
		}
		if s.Mem.TreeWrites == 0 {
			t.Errorf("%v: tree updates never reached memory", content)
		}
	}
}

// A dirty tree node displaced by a bypassed counter's parent update
// must reach memory like any other dirty eviction: every dirty block
// the cache gives up is one tree write, so tree writes can never fall
// short of the cache's dirty evictions.
func TestBypassedCounterUpdateDrainsEvictions(t *testing.T) {
	layout := memlayout.MustNew(memlayout.PoisonIvy, 64<<20)
	meta := metacache.MustNew(metacache.Config{Size: 512, Ways: 8, Content: metacache.TreeOnly})
	e := MustNew(Config{Layout: layout, Meta: meta, DRAM: dram.MustNew(dram.Default())})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4000; i++ {
		e.Writeback(0, uint64(rng.Int63n(int64(layout.DataBytes()))))
	}
	e.Flush(0)
	writes, evicts := e.Stats().Mem.TreeWrites, meta.CacheStats().DirtyEvicts
	if writes < evicts {
		t.Errorf("tree writes %d < dirty evictions %d: displaced tree nodes were dropped", writes, evicts)
	}
}
