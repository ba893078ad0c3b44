package cache_test

import (
	"testing"

	"github.com/maps-sim/mapsim/internal/cache"
)

// TestAccessZeroAllocs pins the steady-state allocation cost of the
// cache hot paths at zero: neither the full Access entry point nor the
// devirtualized FastAccessClassed may touch the heap once the cache is
// built.
func TestAccessZeroAllocs(t *testing.T) {
	c := newLRU(t, 8<<10, 8)
	var x uint64 = 1
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return (x >> 33 % (1 << 12)) * 64
	}
	for i := 0; i < 10_000; i++ { // steady state: all sets full
		c.Access(next(), i%3 == 0, cache.WholeBlock)
	}
	if avg := testing.AllocsPerRun(200, func() {
		c.Access(next(), true, cache.WholeBlock)
	}); avg != 0 {
		t.Errorf("Access allocates %v per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		c.FastAccessClassed(next(), true, 1, 0)
	}); avg != 0 {
		t.Errorf("FastAccessClassed allocates %v per call, want 0", avg)
	}
}
