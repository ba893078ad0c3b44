package hierarchy

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/maps-sim/mapsim/internal/cache"
	"github.com/maps-sim/mapsim/internal/cache/policy"
)

// access is one reference of a twin stream.
type access struct {
	addr  uint64
	write bool
}

// checkLevelTwin drives stream through a recency-ordered level and
// through the reference model, a cache.Cache whose true LRU goes
// through the generic Policy interface. Every access must agree on
// (hit, dirty victim), the final counters must be equal, and flushing
// must drain the same dirty blocks (compared as sets: the level flushes
// in recency order, the cache in way order).
func checkLevelTwin(t testing.TB, size, ways int, stream []access) {
	t.Helper()
	l, err := newLevel(size, ways, false)
	if err != nil {
		t.Fatal(err)
	}
	ref := cache.MustNew(size, ways, policy.NewLRU())
	for i, a := range stream {
		hit, ev, dirty := l.access(a.addr, a.write)
		r := ref.Access(a.addr, a.write, cache.WholeBlock)
		rDirty := r.Evicted.Valid && r.Evicted.Dirty
		var rEv uint64
		if rDirty {
			rEv = r.Evicted.Addr
		}
		if hit != r.Hit || ev != rEv || dirty != rDirty {
			t.Fatalf("%d B %d-way, access %d (addr %#x write %v): level (%v,%#x,%v), reference (%v,%#x,%v)",
				size, ways, i, a.addr, a.write, hit, ev, dirty, r.Hit, rEv, rDirty)
		}
	}
	if ls, rs := l.stats(), ref.Stats(); ls != rs {
		t.Fatalf("%d B %d-way: stats diverge: level %+v, reference %+v", size, ways, ls, rs)
	}
	got := l.flushDirty(nil)
	var want []uint64
	for _, ln := range ref.Flush() {
		want = append(want, ln.Addr)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("%d B %d-way: flushed dirty blocks diverge: level %d, reference %d", size, ways, len(got), len(want))
	}
}

// TestLevelMatchesLRU holds the recency-ordered level to cache.Cache
// with true LRU on random streams: direct-mapped, Table I's 8 ways,
// cache.MaxWays, and single-set (fully associative) geometries. Each
// stream spans four times the level's capacity with a hot subset, so
// hits land at every recency position and most misses evict.
func TestLevelMatchesLRU(t *testing.T) {
	for _, g := range []struct{ sets, ways int }{
		{64, 1}, {16, 8}, {4, cache.MaxWays},
		{1, 1}, {1, 8}, {1, cache.MaxWays},
	} {
		t.Run(fmt.Sprintf("%dx%d", g.sets, g.ways), func(t *testing.T) {
			lines := g.sets * g.ways
			rng := rand.New(rand.NewSource(int64(lines)))
			stream := make([]access, 40_000)
			for i := range stream {
				block := rng.Intn(4 * lines)
				if rng.Intn(2) == 0 {
					block = rng.Intn(lines/2 + 1)
				}
				stream[i] = access{
					addr:  uint64(block)*cache.BlockSize + uint64(rng.Intn(cache.BlockSize)),
					write: rng.Intn(3) == 0,
				}
			}
			checkLevelTwin(t, lines*cache.BlockSize, g.ways, stream)
		})
	}
}

// FuzzLevelMatchesLRU is TestLevelMatchesLRU's differential check on
// fuzzer-chosen geometries and streams. Byte 0 picks the associativity
// (1 to cache.MaxWays), byte 1 the set count (1 to 16); every further
// three bytes are one access: a little-endian block number folded into
// twice the level's capacity, then a byte whose low bit is the write
// flag and whose upper bits are the offset within the block.
func FuzzLevelMatchesLRU(f *testing.F) {
	f.Add([]byte{3, 2, 0, 0, 1, 1, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 1, 0, 1, 2, 0, 1, 1, 0, 0})
	f.Add([]byte{6, 0, 5, 0, 3, 9, 0, 2, 5, 0, 0, 70, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ways := 1 << (data[0] % 7)
		sets := 1 << (data[1] % 5)
		lines := sets * ways
		var stream []access
		for p := data[2:]; len(p) >= 3; p = p[3:] {
			block := uint64(binary.LittleEndian.Uint16(p)) % uint64(2*lines)
			stream = append(stream, access{
				addr:  block*cache.BlockSize + uint64(p[2]>>1)%cache.BlockSize,
				write: p[2]&1 != 0,
			})
		}
		checkLevelTwin(t, lines*cache.BlockSize, ways, stream)
	})
}

// TestHierarchyMatchesReference runs one stream through a hierarchy of
// recency-ordered levels and through one built with DisableFastPath,
// whose levels are the reference caches: every access must report the
// same hit level and writebacks, the per-level counters must match, and
// FlushWritebacks must drain the same blocks.
func TestHierarchyMatchesReference(t *testing.T) {
	cfg := Config{
		L1Size: 8 * 64, L1Ways: 2,
		L2Size: 32 * 64, L2Ways: 4,
		L3Size: 128 * 64, L3Ways: 8,
	}
	fast := MustNew(cfg)
	cfg.DisableFastPath = true
	ref := MustNew(cfg)
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 100_000; i++ {
		addr := uint64(rng.Intn(512)) * 64
		write := rng.Intn(3) == 0
		// Each hierarchy reuses its own Writebacks buffer, so f stays
		// valid across ref.Access.
		f, r := fast.Access(addr, write), ref.Access(addr, write)
		if f.Hit != r.Hit || !slices.Equal(f.Writebacks, r.Writebacks) {
			t.Fatalf("access %d (addr %#x write %v): fast (%v %v), reference (%v %v)", i, addr, write, f.Hit, f.Writebacks, r.Hit, r.Writebacks)
		}
	}
	if fast.L1Stats() != ref.L1Stats() || fast.L2Stats() != ref.L2Stats() || fast.L3Stats() != ref.L3Stats() {
		t.Fatalf("stats diverge: fast %+v %+v %+v, reference %+v %+v %+v",
			fast.L1Stats(), fast.L2Stats(), fast.L3Stats(), ref.L1Stats(), ref.L2Stats(), ref.L3Stats())
	}
	if fast.LLCSize() != ref.LLCSize() {
		t.Errorf("LLC size: fast %d, reference %d", fast.LLCSize(), ref.LLCSize())
	}
	got, want := fast.FlushWritebacks(), ref.FlushWritebacks()
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("flushed writebacks diverge: fast %d, reference %d", len(got), len(want))
	}
}
