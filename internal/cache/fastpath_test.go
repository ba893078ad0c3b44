package cache_test

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/maps-sim/mapsim/internal/cache"
	"github.com/maps-sim/mapsim/internal/cache/policy"
)

// fastSlowPair builds two caches with identical geometry: one whose
// policy the cache devirtualizes, and one forced through the generic
// Policy interface with policy.Generic.
func fastSlowPair(t *testing.T, name string) (fast, slow *cache.Cache) {
	t.Helper()
	const size, ways = 8 << 10, 4
	switch name {
	case "lru":
		return cache.MustNew(size, ways, policy.NewLRU()),
			cache.MustNew(size, ways, policy.Generic(policy.NewLRU()))
	case "plru":
		return cache.MustNew(size, ways, policy.NewPLRU()),
			cache.MustNew(size, ways, policy.Generic(policy.NewPLRU()))
	default:
		t.Fatalf("unknown pair %q", name)
		return nil, nil
	}
}

// TestFastAccessClassedMatchesGeneric drives the same random reference
// stream, with random classes and allowed-way masks (including the
// unrestricted zero mask), through the devirtualized
// FastAccessClassed path and through a cache whose policy.Generic
// wrapper forces the interface path, requiring identical per-access
// outcomes, counters, and final contents.
func TestFastAccessClassedMatchesGeneric(t *testing.T) {
	for _, name := range []string{"lru", "plru"} {
		t.Run(name, func(t *testing.T) {
			fast, slow := fastSlowPair(t, name)
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 50_000; i++ {
				addr := uint64(rng.Intn(1<<15)) * 64
				write := rng.Intn(4) == 0
				class := uint8(rng.Intn(6))
				var allowed uint64
				if rng.Intn(2) == 0 {
					allowed = uint64(1 + rng.Intn(15)) // non-empty subset of 4 ways
				}
				fh, fa, ff := fast.FastAccessClassed(addr, write, class, allowed)
				sh, sa, sf := slow.FastAccessClassed(addr, write, class, allowed)
				if fh != sh || fa != sa || ff != sf {
					t.Fatalf("access %d (addr %#x write %v class %d allowed %#x): fast (%v,%#x,%#x) vs generic (%v,%#x,%#x)",
						i, addr, write, class, allowed, fh, fa, ff, sh, sa, sf)
				}
			}
			if fs, ss := fast.Stats(), slow.Stats(); fs != ss {
				t.Errorf("stats diverge: fast %+v generic %+v", fs, ss)
			}
			if ff, sf := fast.Flush(), slow.Flush(); !reflect.DeepEqual(ff, sf) {
				t.Errorf("flush contents diverge: fast %d lines, generic %d lines", len(ff), len(sf))
			}
		})
	}
}
