package hierarchy

import "testing"

// TestAccessZeroAllocs pins the hierarchy hot path at zero heap
// allocations per access once the writeback scratch buffer has grown
// to its steady-state capacity, on the recency-ordered levels and on
// the DisableFastPath reference caches alike.
func TestAccessZeroAllocs(t *testing.T) {
	for _, ref := range []bool{false, true} {
		cfg := Default()
		cfg.DisableFastPath = ref
		h := MustNew(cfg)
		var x uint64 = 99
		next := func() uint64 {
			x = x*6364136223846793005 + 1442695040888963407
			return (x >> 33 % (1 << 18)) * 64 // 16 MB footprint: misses at every level
		}
		for i := 0; i < 200_000; i++ {
			h.Access(next(), i%4 == 0)
		}
		if avg := testing.AllocsPerRun(500, func() {
			h.Access(next(), true)
		}); avg != 0 {
			t.Errorf("DisableFastPath=%v: Access allocates %v per call, want 0", ref, avg)
		}
	}
}
