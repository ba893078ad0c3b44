package hierarchy

import (
	"math/rand"
	"testing"
)

func TestLevelString(t *testing.T) {
	for l, s := range map[Level]string{L1: "L1", L2: "L2", L3: "L3", Memory: "memory"} {
		if l.String() != s {
			t.Errorf("%d.String() = %q", l, l.String())
		}
	}
	if Level(99).String() == "" {
		t.Error("unknown level should still print")
	}
}

func TestNewValidation(t *testing.T) {
	// Each level applies cache.Geometry, so the errors are the cache
	// package's, wrapped with the level's name, on both level paths.
	for _, tc := range []struct {
		edit func(*Config)
		want string
	}{
		{func(c *Config) { c.L1Size = 7 }, "hierarchy: L1: cache: size 7 not divisible into 8-way sets of 64 B lines"},
		{func(c *Config) { c.L2Ways = 0 }, "hierarchy: L2: cache: ways 0 out of range [1,64]"},
		{func(c *Config) { c.L3Size = 100 }, "hierarchy: L3: cache: size 100 not divisible into 8-way sets of 64 B lines"},
		{func(c *Config) { c.L3Ways = 65 }, "hierarchy: L3: cache: ways 65 out of range [1,64]"},
		{func(c *Config) { c.L2Size = 3 * 8 * 64 }, "hierarchy: L2: cache: set count 3 is not a power of two"},
	} {
		for _, ref := range []bool{false, true} {
			cfg := Default()
			cfg.DisableFastPath = ref
			tc.edit(&cfg)
			if _, err := New(cfg); err == nil || err.Error() != tc.want {
				t.Errorf("DisableFastPath=%v: error %v, want %q", ref, err, tc.want)
			}
		}
	}
}

func TestColdMissFillsAllLevels(t *testing.T) {
	h := MustNew(Default())
	out := h.Access(0, false)
	if out.Hit != Memory {
		t.Fatalf("cold access hit %v", out.Hit)
	}
	out = h.Access(0, false)
	if out.Hit != L1 {
		t.Fatalf("second access hit %v, want L1", out.Hit)
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	cfg := Config{
		L1Size: 2 * 64, L1Ways: 2, // 1 set, 2 ways
		L2Size: 64 * 64, L2Ways: 8,
		L3Size: 1024 * 64, L3Ways: 8,
	}
	h := MustNew(cfg)
	h.Access(0, false)
	h.Access(64, false)
	h.Access(128, false) // evicts 0 from L1 (clean)
	out := h.Access(0, false)
	if out.Hit != L2 {
		t.Fatalf("hit %v, want L2", out.Hit)
	}
}

func TestDirtyCascadesToMemory(t *testing.T) {
	// Tiny single-set hierarchy: writing a stream of blocks must
	// eventually surface writebacks.
	cfg := Config{
		L1Size: 2 * 64, L1Ways: 2,
		L2Size: 2 * 64, L2Ways: 2,
		L3Size: 2 * 64, L3Ways: 2,
	}
	h := MustNew(cfg)
	var wb int
	for i := uint64(0); i < 32; i++ {
		out := h.Access(i*64*16, true) // distinct sets irrelevant: 1 set each
		wb += len(out.Writebacks)
	}
	if wb == 0 {
		t.Fatal("no writebacks from an all-store stream")
	}
}

func TestWritebackConservation(t *testing.T) {
	// Every written block is eventually written back exactly once:
	// during the run or at flush.
	cfg := Config{
		L1Size: 4 * 64, L1Ways: 4,
		L2Size: 8 * 64, L2Ways: 4,
		L3Size: 16 * 64, L3Ways: 4,
	}
	h := MustNew(cfg)
	written := map[uint64]bool{}
	got := map[uint64]int{}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		addr := uint64(rng.Intn(64)) * 64
		write := rng.Intn(2) == 0
		if write {
			written[addr] = true
		}
		out := h.Access(addr, write)
		for _, wb := range out.Writebacks {
			got[wb]++
		}
	}
	for _, wb := range h.FlushWritebacks() {
		got[wb]++
	}
	for addr := range got {
		if !written[addr] {
			t.Errorf("block %#x written back but never stored", addr)
		}
	}
	// Every stored block must come back at least once (it was dirty
	// at some point and the hierarchy can't destroy dirty data).
	for addr := range written {
		if got[addr] == 0 {
			t.Errorf("stored block %#x never written back", addr)
		}
	}
}

func TestMPKIOrderingAcrossLevels(t *testing.T) {
	h := MustNew(Default())
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200000; i++ {
		// 8 MB working set: misses at every level.
		addr := uint64(rng.Intn(8<<20/64)) * 64
		h.Access(addr, rng.Intn(5) == 0)
	}
	l1, l2, l3 := h.L1Stats(), h.L2Stats(), h.L3Stats()
	if !(l1.Misses >= l2.Misses && l2.Misses >= l3.Misses) {
		t.Errorf("miss filtering violated: L1 %d, L2 %d, L3 %d", l1.Misses, l2.Misses, l3.Misses)
	}
	if l3.Misses == 0 {
		t.Error("8MB working set should miss in 2MB LLC")
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	h := MustNew(Default())
	h.Access(0, false)
	h.ResetStats()
	if h.L1Stats().Accesses != 0 {
		t.Error("stats not reset")
	}
	if out := h.Access(0, false); out.Hit != L1 {
		t.Error("contents lost on stats reset")
	}
	if h.LLCSize() != 2<<20 {
		t.Errorf("LLC size = %d", h.LLCSize())
	}
}
