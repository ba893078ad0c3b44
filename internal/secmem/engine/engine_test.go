package engine

import (
	"testing"

	"github.com/maps-sim/mapsim/internal/cache/policy"
	"github.com/maps-sim/mapsim/internal/dram"
	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/trace"
)

func newEngine(t testing.TB, metaSize int, partial bool) (*Engine, *memlayout.Layout) {
	t.Helper()
	layout := memlayout.MustNew(memlayout.PoisonIvy, 64<<20)
	var meta *metacache.MetaCache
	if metaSize > 0 {
		meta = metacache.MustNew(metacache.Config{
			Size: metaSize, Ways: 8, Policy: policy.NewLRU(), PartialWrites: partial,
		})
	}
	e := MustNew(Config{
		Layout: layout,
		Meta:   meta,
		DRAM:   dram.MustNew(dram.Default()),
	})
	return e, layout
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing layout accepted")
	}
	layout := memlayout.MustNew(memlayout.PoisonIvy, 1<<20)
	if _, err := New(Config{Layout: layout}); err == nil {
		t.Error("missing DRAM accepted")
	}
	e := MustNew(Config{Layout: layout, DRAM: dram.MustNew(dram.Default())})
	if e.cfg.HashLatency != 40 {
		t.Errorf("default hash latency = %d", e.cfg.HashLatency)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic")
		}
	}()
	MustNew(Config{})
}

func TestReadNoCacheTraffic(t *testing.T) {
	e, layout := newEngine(t, 0, false)
	e.Read(0, 4096)
	s := e.Stats()
	// 1 data + 1 counter + full tree walk + 1 hash.
	if s.Mem.DataReads != 1 || s.Mem.CounterReads != 1 || s.Mem.HashReads != 1 {
		t.Errorf("traffic: %+v", s.Mem)
	}
	if s.Mem.TreeReads != uint64(layout.TreeLevels()) {
		t.Errorf("tree reads = %d, want %d", s.Mem.TreeReads, layout.TreeLevels())
	}
	if s.Reads != 1 {
		t.Errorf("reads = %d", s.Reads)
	}
}

func TestReadWithCacheSecondAccessFree(t *testing.T) {
	e, _ := newEngine(t, 64<<10, false)
	e.Read(0, 4096)
	before := e.Stats().Mem
	e.Read(1000, 4096+64) // same page, same counter/hash blocks? 4160 is same page, same hash block
	after := e.Stats().Mem
	if after.CounterReads != before.CounterReads {
		t.Error("cached counter refetched")
	}
	if after.TreeReads != before.TreeReads {
		t.Error("tree walked despite cached counter")
	}
	if after.HashReads != before.HashReads {
		t.Error("cached hash refetched")
	}
	if after.DataReads != before.DataReads+1 {
		t.Error("data read missing")
	}
}

func TestSpeculationHidesVerification(t *testing.T) {
	layout := memlayout.MustNew(memlayout.PoisonIvy, 64<<20)
	mk := func(spec bool) uint64 {
		e := MustNew(Config{Layout: layout, DRAM: dram.MustNew(dram.Default()), Speculation: spec})
		return e.Read(0, 4096)
	}
	if spec, noSpec := mk(true), mk(false); spec >= noSpec {
		t.Errorf("speculation latency %d should be below non-speculative %d", spec, noSpec)
	}
}

func TestTreeWalkStopsAtCachedAncestor(t *testing.T) {
	e, layout := newEngine(t, 1<<20, false)
	// First read walks the full tree and caches every node.
	e.Read(0, 0)
	walked := e.Stats().TreeWalkLevels
	if walked != uint64(layout.TreeLevels()) {
		t.Fatalf("first walk touched %d levels, want %d", walked, layout.TreeLevels())
	}
	// A read in a distant page shares only upper levels: the walk
	// must stop fetching at the first shared cached node (the hit
	// itself is visited but not fetched).
	reads := e.Stats().Mem.TreeReads
	e.Read(0, 32<<20)
	fetched := e.Stats().Mem.TreeReads - reads
	if fetched == 0 || fetched >= uint64(layout.TreeLevels()) {
		t.Errorf("second walk fetched %d levels, want in (0, %d)", fetched, layout.TreeLevels())
	}
}

func TestWritebackDefersTreeUpdate(t *testing.T) {
	e, _ := newEngine(t, 1<<20, false)
	e.Writeback(0, 4096)
	s := e.Stats()
	// With a big metadata cache, the dirty counter stays resident: no
	// tree writes yet.
	if s.Mem.TreeWrites != 0 {
		t.Errorf("tree writes = %d before any counter eviction", s.Mem.TreeWrites)
	}
	if s.Mem.DataWrites != 1 {
		t.Errorf("data writes = %d", s.Mem.DataWrites)
	}
	// Flush forces the deferred updates out.
	e.Flush(1000)
	s = e.Stats()
	if s.Mem.CounterWrites == 0 {
		t.Error("flush did not write back the dirty counter")
	}
	if s.Mem.TreeWrites == 0 {
		t.Error("flush did not propagate the tree update")
	}
}

func TestWritebackNoCacheImmediateTreeWrites(t *testing.T) {
	e, layout := newEngine(t, 0, false)
	e.Writeback(0, 4096)
	s := e.Stats()
	if s.Mem.TreeWrites != uint64(layout.TreeLevels()) {
		t.Errorf("tree writes = %d, want %d (immediate)", s.Mem.TreeWrites, layout.TreeLevels())
	}
	if s.Mem.CounterWrites != 1 || s.Mem.CounterReads != 1 {
		t.Errorf("counter RMW traffic: %+v", s.Mem)
	}
	if s.Mem.HashWrites != 1 {
		t.Errorf("hash writes = %d", s.Mem.HashWrites)
	}
}

func TestPartialWritesAvoidHashFetch(t *testing.T) {
	run := func(partial bool) MemTraffic {
		e, _ := newEngine(t, 64<<10, partial)
		e.Writeback(0, 4096)
		return e.Stats().Mem
	}
	with := run(true)
	without := run(false)
	if with.HashReads != 0 {
		t.Errorf("partial writes still fetched the hash block: %+v", with)
	}
	if without.HashReads != 1 {
		t.Errorf("non-partial write miss should fetch the hash block: %+v", without)
	}
}

func TestPartialHashEvictionPaysFillRead(t *testing.T) {
	// Tiny cache so the partial hash block gets evicted while still
	// incomplete.
	e, _ := newEngine(t, 8*64, true)
	e.Writeback(0, 0) // partial hash placeholder for block 0
	// Push enough other metadata through to evict it.
	for i := uint64(1); i < 40; i++ {
		e.Read(0, i*memlayout.PageSize*8)
	}
	e.Flush(0)
	s := e.Stats()
	if s.Mem.HashReads == 0 {
		t.Error("incomplete hash block written back without its fill read")
	}
	if s.Mem.HashWrites == 0 {
		t.Error("dirty hash never written back")
	}
}

func TestPageReencryptionOnOverflow(t *testing.T) {
	e, _ := newEngine(t, 64<<10, false)
	// 127 writes to the same block: minor counter reaches its limit.
	for i := 0; i < 127; i++ {
		e.Writeback(0, 0)
	}
	if e.Stats().PageReencryptions != 0 {
		t.Fatalf("premature re-encryption after 127 writes")
	}
	e.Writeback(0, 0)
	s := e.Stats()
	if s.PageReencryptions != 1 {
		t.Fatalf("re-encryptions = %d after 128 writes", s.PageReencryptions)
	}
	// The page re-encryption reads+writes all 64 blocks.
	if s.Mem.DataReads < memlayout.BlocksPerPage {
		t.Errorf("re-encryption data reads = %d", s.Mem.DataReads)
	}
}

func TestSGXOrganizationNeverOverflows(t *testing.T) {
	layout := memlayout.MustNew(memlayout.SGX, 16<<20)
	e := MustNew(Config{Layout: layout, DRAM: dram.MustNew(dram.Default())})
	for i := 0; i < 300; i++ {
		e.Writeback(0, 0)
	}
	if e.Stats().PageReencryptions != 0 {
		t.Error("SGX counters should not overflow")
	}
}

func TestTapObservesAllMetadata(t *testing.T) {
	layout := memlayout.MustNew(memlayout.PoisonIvy, 64<<20)
	var seen []trace.Access
	e := MustNew(Config{
		Layout: layout,
		DRAM:   dram.MustNew(dram.Default()),
		Tap:    func(a trace.Access) { seen = append(seen, a) },
	})
	e.Read(0, 4096)
	kinds := map[memlayout.Kind]int{}
	for _, a := range seen {
		kinds[memlayout.Kind(a.Class)]++
	}
	if kinds[memlayout.KindCounter] != 1 || kinds[memlayout.KindHash] != 1 {
		t.Errorf("tap kinds: %v", kinds)
	}
	if kinds[memlayout.KindTree] != layout.TreeLevels() {
		t.Errorf("tree taps = %d, want %d", kinds[memlayout.KindTree], layout.TreeLevels())
	}
	// Counter tap records the full miss cost (1 + tree levels).
	for _, a := range seen {
		if memlayout.Kind(a.Class) == memlayout.KindCounter && int(a.Cost) != 1+layout.TreeLevels() {
			t.Errorf("counter cost = %d, want %d", a.Cost, 1+layout.TreeLevels())
		}
	}

	seen = seen[:0]
	e.Writeback(0, 4096)
	foundWrite := false
	for _, a := range seen {
		if a.Write {
			foundWrite = true
		}
	}
	if !foundWrite {
		t.Error("writeback produced no write taps")
	}
}

func TestEvictionCascadeTerminates(t *testing.T) {
	// A stressful mix on a tiny cache exercises the cascade logic.
	e, _ := newEngine(t, 8*64, false)
	for i := uint64(0); i < 3000; i++ {
		if i%3 == 0 {
			e.Writeback(i, (i*7919)%(60<<20))
		} else {
			e.Read(i, (i*104729)%(60<<20))
		}
	}
	e.Flush(0)
	s := e.Stats()
	if s.Mem.CounterWrites == 0 || s.Mem.TreeWrites == 0 {
		t.Errorf("cascades produced no deferred writes: %+v", s.Mem)
	}
}

func TestResetStats(t *testing.T) {
	e, _ := newEngine(t, 64<<10, false)
	e.Read(0, 0)
	e.ResetStats()
	if e.Stats().Mem.Total() != 0 || e.Meta().TotalStats().Accesses != 0 {
		t.Error("reset incomplete")
	}
}

func TestMemTrafficHelpers(t *testing.T) {
	m := MemTraffic{DataReads: 1, DataWrites: 2, CounterReads: 3, HashWrites: 4, TreeReads: 5}
	if m.Total() != 15 {
		t.Errorf("total = %d", m.Total())
	}
	if m.Metadata() != 12 {
		t.Errorf("metadata = %d", m.Metadata())
	}
}

func TestHashThroughputBackpressure(t *testing.T) {
	// Two engines, identical except hash issue rate. Back-to-back
	// unverified reads at the same cycle must queue behind a slow
	// hash engine.
	layout := memlayout.MustNew(memlayout.PoisonIvy, 64<<20)
	mk := func(interval uint64) uint64 {
		e := MustNew(Config{
			Layout: layout, DRAM: dram.MustNew(dram.Default()),
			Speculation: false, HashThroughputCycles: interval,
		})
		var total uint64
		for i := uint64(0); i < 8; i++ {
			total += e.Read(0, i*memlayout.PageSize)
		}
		return total
	}
	fast := mk(1)
	slow := mk(200)
	if slow <= fast {
		t.Errorf("slow hash engine (%d cycles) should exceed fast (%d)", slow, fast)
	}
}

// TestNewRejectsLayoutBeyondReach pins the address bound: a layout
// spanning more than the packed metadata-cache sets can address is
// refused up front rather than run until a fill aliases another
// block, while the unbounded reference path accepts it.
func TestNewRejectsLayoutBeyondReach(t *testing.T) {
	layout := memlayout.MustNew(memlayout.PoisonIvy, 1<<48)
	cfg := metacache.Config{Size: 64 << 10, Ways: 8, Policy: policy.NewLRU()}
	if layout.TotalBytes() <= metacache.MustNew(cfg).Reach() {
		t.Fatalf("layout spans %d B, within the sets' reach", layout.TotalBytes())
	}
	if _, err := New(Config{Layout: layout, Meta: metacache.MustNew(cfg), DRAM: dram.MustNew(dram.Default())}); err == nil {
		t.Error("packed metadata cache accepted a layout beyond its reach")
	}
	cfg.DisableFastPath = true
	if _, err := New(Config{Layout: layout, Meta: metacache.MustNew(cfg), DRAM: dram.MustNew(dram.Default())}); err != nil {
		t.Errorf("reference metadata cache refused the layout: %v", err)
	}
}
