package metacache

import (
	"testing"

	"github.com/maps-sim/mapsim/internal/cache/policy"
	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/partition"
)

func TestContentPolicyAllows(t *testing.T) {
	if !AllTypes.Allows(memlayout.KindCounter) || !AllTypes.Allows(memlayout.KindHash) || !AllTypes.Allows(memlayout.KindTree) {
		t.Error("AllTypes should allow everything")
	}
	if CountersOnly.Allows(memlayout.KindHash) || CountersOnly.Allows(memlayout.KindTree) {
		t.Error("CountersOnly too permissive")
	}
	if !CountersHashes.Allows(memlayout.KindHash) || CountersHashes.Allows(memlayout.KindTree) {
		t.Error("CountersHashes wrong")
	}
	if AllTypes.Allows(memlayout.KindData) {
		t.Error("data should never be admitted")
	}
}

func TestContentPolicyStrings(t *testing.T) {
	names := map[ContentPolicy]string{
		CountersOnly: "counters", CountersHashes: "counters+hashes", AllTypes: "all",
		HashesOnly: "hashes", TreeOnly: "tree", CountersTree: "counters+tree", HashesTree: "hashes+tree",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p, want)
		}
	}
	if ContentPolicy(0).String() == "" {
		t.Error("zero policy should print something")
	}
}

func TestEncodeDecodeClass(t *testing.T) {
	for _, k := range []memlayout.Kind{memlayout.KindCounter, memlayout.KindHash, memlayout.KindTree} {
		for lev := 0; lev < 8; lev++ {
			gk, gl := DecodeClass(EncodeClass(k, lev))
			if gk != k || gl != lev {
				t.Fatalf("round trip (%v,%d) -> (%v,%d)", k, lev, gk, gl)
			}
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	m := MustNew(Config{Size: 16 << 10, Ways: 8})
	if m.Content() != AllTypes {
		t.Error("default content should be all types")
	}
	if m.PolicyName() != "plru" {
		t.Errorf("default policy = %s", m.PolicyName())
	}
	if m.Size() != 16<<10 {
		t.Errorf("size = %d", m.Size())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Size: 100, Ways: 8}); err == nil {
		t.Error("bad geometry accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic")
		}
	}()
	MustNew(Config{Size: 1, Ways: 1})
}

// Classes of the metadata kinds the tests look up.
var (
	counterClass = EncodeClass(memlayout.KindCounter, 0)
	hashClass    = EncodeClass(memlayout.KindHash, 0)
)

func treeClass(level int) uint8 { return EncodeClass(memlayout.KindTree, level) }

func TestBypassedKindsAlwaysMiss(t *testing.T) {
	m := MustNew(Config{Size: 16 << 10, Ways: 8, Content: CountersOnly})
	for i := 0; i < 10; i++ {
		if hit, tagHit, _, evFlags := m.Access(1<<20, hashClass, false, 2); hit || tagHit || evFlags != 0 {
			t.Fatal("bypassed hash hit the cache")
		}
	}
	hs := m.KindStats(memlayout.KindHash)
	if hs.Accesses != 10 || hs.Bypassed != 10 || hs.Misses != 0 || hs.Hits != 0 {
		t.Errorf("hash stats: %+v", hs)
	}
	if m.TotalStats().Bypassed != 10 {
		t.Errorf("total bypassed = %d", m.TotalStats().Bypassed)
	}
	// Bypass counts what Access counts for a bypassed class.
	m.Bypass(hashClass)
	if hs := m.KindStats(memlayout.KindHash); hs.Accesses != 11 || hs.Bypassed != 11 {
		t.Errorf("hash stats after Bypass: %+v", hs)
	}
	// Counters cache normally.
	m.Access(0, counterClass, false, -1)
	if hit, _, _, _ := m.Access(0, counterClass, false, -1); !hit {
		t.Error("counter should hit on reuse")
	}
	if m.CacheStats().Accesses != 2 {
		t.Errorf("bypassed requests reached the cache: %+v", m.CacheStats())
	}
}

func TestPerKindStatsAndTotal(t *testing.T) {
	m := MustNew(Config{Size: 16 << 10, Ways: 8})
	m.Access(0, counterClass, false, -1)
	m.Access(0, counterClass, false, -1)
	m.Access(64, hashClass, false, 0)
	m.Access(128, treeClass(2), false, 1)
	tot := m.TotalStats()
	if tot.Accesses != 4 || tot.Hits != 1 || tot.Misses != 3 {
		t.Errorf("total: %+v", tot)
	}
	if m.KindStats(memlayout.KindTree).Accesses != 1 {
		t.Error("tree stats missing")
	}
	m.ResetStats()
	if m.TotalStats().Accesses != 0 {
		t.Error("reset failed")
	}
}

func TestPartialWriteLifecycle(t *testing.T) {
	m := MustNew(Config{Size: 2 * 64, Ways: 2, PartialWrites: true})
	// Hash write miss inserts a placeholder (no memory fetch needed:
	// hit=false tells the engine it wrote without fetching).
	if hit, tagHit, _, _ := m.Access(0, hashClass, true, 3); hit || tagHit {
		t.Fatalf("placeholder insert reported hit=%v tagHit=%v", hit, tagHit)
	}
	// Read of another slot is a tag hit but requires memory (partial
	// miss).
	if hit, tagHit, _, _ := m.Access(0, hashClass, false, 5); !tagHit || hit {
		t.Fatalf("partial read: hit=%v tagHit=%v", hit, tagHit)
	}
	if m.KindStats(memlayout.KindHash).PartialMiss != 1 {
		t.Error("partial miss not counted")
	}
	// Displace the block: eviction must carry Partial=true (slots
	// never fully filled).
	m.Access(2<<20, counterClass, true, -1)
	_, _, evAddr, evFlags := m.Access(4<<20, counterClass, true, -1)
	if evFlags == 0 {
		t.Fatal("expected hash eviction, got none")
	}
	if ev := DecodeEvicted(evAddr, evFlags); ev.Kind != memlayout.KindHash || !ev.Partial {
		t.Errorf("evicted %+v, want a partially-filled hash", ev)
	}
}

func TestPartialWritesDisabledFetchesWholeBlock(t *testing.T) {
	m := MustNew(Config{Size: 2 * 64, Ways: 2, PartialWrites: false})
	if hit, _, _, _ := m.Access(0, hashClass, true, 3); hit {
		t.Fatal("write miss cannot hit")
	}
	// Whole block present: reading another slot hits fully.
	if hit, _, _, _ := m.Access(0, hashClass, false, 5); !hit {
		t.Error("full line should satisfy any slot")
	}
}

func TestEvictedDirtyOnly(t *testing.T) {
	m := MustNew(Config{Size: 2 * 64, Ways: 2})
	m.Access(0, counterClass, false, -1)     // clean
	m.Access(1<<20, counterClass, false, -1) // clean
	// evicts a clean line
	if _, _, evAddr, evFlags := m.Access(2<<20, counterClass, false, -1); evFlags != 0 {
		t.Errorf("clean eviction surfaced: %+v", DecodeEvicted(evAddr, evFlags))
	}
	m.Access(3<<20, counterClass, true, -1)
	_, _, _, f1 := m.Access(4<<20, counterClass, false, -1)
	// One of the last two insertions may evict the dirty line.
	_, _, _, f2 := m.Access(5<<20, counterClass, false, -1)
	if f1 == 0 && f2 == 0 {
		t.Error("dirty eviction never surfaced")
	}
}

func TestPartitionConstrainsOccupancy(t *testing.T) {
	m := MustNew(Config{
		Size: 8 * 64, Ways: 8,
		Policy:    policy.NewLRU(),
		Partition: partition.NewStatic(2),
	})
	for i := uint64(0); i < 8; i++ {
		m.Access(i*64*1024, counterClass, false, -1)
	}
	for i := uint64(100); i < 108; i++ {
		m.Access(i*64*1024, hashClass, false, -1)
	}
	if got := m.Occupancy(int(memlayout.KindCounter)); got != 2 {
		t.Errorf("counters occupy %d ways, want 2", got)
	}
	if got := m.Occupancy(int(memlayout.KindHash)); got != 6 {
		t.Errorf("hashes occupy %d ways, want 6", got)
	}
	if m.Occupancy(-1) != 8 {
		t.Error("total occupancy wrong")
	}
}

func TestTreeLevelsTracked(t *testing.T) {
	m := MustNew(Config{Size: 16 << 10, Ways: 8})
	m.Access(0, treeClass(3), true, -1)
	ev := m.Flush()
	if len(ev) != 1 || ev[0].Kind != memlayout.KindTree || ev[0].Level != 3 {
		t.Errorf("flush = %+v", ev)
	}
}

func TestCacheStatsExposed(t *testing.T) {
	m := MustNew(Config{Size: 16 << 10, Ways: 8})
	m.Access(0, counterClass, false, -1)
	if m.CacheStats().Accesses != 1 {
		t.Error("cache stats not exposed")
	}
}

func TestLevelStats(t *testing.T) {
	m := MustNew(Config{Size: 16 << 10, Ways: 8})
	m.Access(0, treeClass(0), false, -1)
	m.Access(0, treeClass(0), false, -1)
	m.Access(64, treeClass(2), false, -1)
	l0 := m.LevelStats(0)
	if l0.Accesses != 2 || l0.Hits != 1 || l0.Misses != 1 {
		t.Errorf("level 0: %+v", l0)
	}
	l2 := m.LevelStats(2)
	if l2.Accesses != 1 || l2.Misses != 1 {
		t.Errorf("level 2: %+v", l2)
	}
	if m.LevelStats(5).Accesses != 0 {
		t.Error("untouched level has counts")
	}
	// Counter accesses must not pollute level stats.
	m.Access(128, counterClass, false, -1)
	if m.LevelStats(0).Accesses != 2 {
		t.Error("counter access leaked into tree level stats")
	}
	m.ResetStats()
	if m.LevelStats(0).Accesses != 0 {
		t.Error("level stats not reset")
	}
}

func TestLevelStatsBypassed(t *testing.T) {
	m := MustNew(Config{Size: 16 << 10, Ways: 8, Content: CountersOnly})
	m.Access(0, treeClass(1), false, -1)
	l1 := m.LevelStats(1)
	if l1.Accesses != 1 || l1.Bypassed != 1 || l1.Misses != 0 {
		t.Errorf("bypassed level stats: %+v", l1)
	}
}

// TestDataClassPanics pins that the entry takes only metadata classes:
// a data block's class has no counter row.
func TestDataClassPanics(t *testing.T) {
	m := MustNew(Config{Size: 16 << 10, Ways: 8})
	defer func() {
		if recover() == nil {
			t.Error("Access accepted a data class")
		}
	}()
	m.Access(0, EncodeClass(memlayout.KindData, 0), false, -1)
}
