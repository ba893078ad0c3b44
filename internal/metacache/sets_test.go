package metacache

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/maps-sim/mapsim/internal/cache"
	"github.com/maps-sim/mapsim/internal/cache/policy"
	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/partition"
)

// newPolicy returns a fresh built-in policy, LRU when lru is set and
// PLRU otherwise.
func newPolicy(lru bool) cache.Policy {
	if lru {
		return policy.NewLRU()
	}
	return policy.NewPLRU()
}

// TestSetsMatchGeneric drives the same random reference stream, with
// random classes and allowed-way masks (including the unrestricted
// zero mask), through the packed sets and through a cache.Cache
// running the same policy through its Policy interface, requiring
// identical per-access outcomes, counters, and final contents.
func TestSetsMatchGeneric(t *testing.T) {
	for _, lru := range []bool{true, false} {
		name := "plru"
		if lru {
			name = "lru"
		}
		t.Run(name, func(t *testing.T) {
			const size, ways = 8 << 10, 4
			count, _ := cache.Geometry(size, ways)
			fast := newSets(count, ways, lru)
			slow := cache.MustNew(size, ways, newPolicy(lru))
			rng := rand.New(rand.NewSource(11))
			var counts KindStats // the lookup outcomes MetaCache.Access counts
			for i := 0; i < 50_000; i++ {
				addr := uint64(rng.Intn(1<<15)) * 64
				write := rng.Intn(4) == 0
				class := uint8(rng.Intn(6))
				var allowed uint64
				if rng.Intn(2) == 0 {
					allowed = uint64(1 + rng.Intn(15)) // non-empty subset of 4 ways
				}
				fh, fv, fa, ff := fast.access(addr, write, class, -1, allowed)
				switch {
				case !fh:
					counts.Misses++
				case !fv:
					counts.Hits++
					counts.PartialMiss++
				default:
					counts.Hits++
				}
				r := slow.Access(addr, write, cache.Options{Class: class, Slot: -1, Allowed: allowed})
				var sa, sf uint64
				if r.Evicted.Valid && r.Evicted.Dirty {
					sa, sf = r.Evicted.Addr, uint64(r.Evicted.Class)|uint64(r.Evicted.ValidMask)<<8
				}
				if fh != r.Hit || fa != sa || ff != sf {
					t.Fatalf("access %d (addr %#x write %v class %d allowed %#x): sets (%v,%#x,%#x) vs generic (%v,%#x,%#x)",
						i, addr, write, class, allowed, fh, fa, ff, r.Hit, sa, sf)
				}
			}
			if fs, ss := fast.stats(counts), slow.Stats(); fs != ss {
				t.Errorf("stats diverge: sets %+v generic %+v", fs, ss)
			}
			var want []Evicted
			for _, l := range slow.Flush() {
				want = append(want, evicted(l.Addr, uint64(l.Class)|uint64(l.ValidMask)<<8))
			}
			if got := fast.flush(nil); !reflect.DeepEqual(got, want) {
				t.Errorf("flush contents diverge: sets %d lines, generic %d lines", len(got), len(want))
			}
		})
	}
}

// twinConfig describes one metadata cache of a twin test; each call
// of build returns a cache with its own policy and partition.
type twinConfig struct {
	size, ways int
	lru        bool
	partial    bool
	content    ContentPolicy
	// scheme is 0 for no partition, 1 for static, 2 for dynamic; the
	// split and leader-period parameters are used modulo what the
	// geometry allows.
	scheme, splitA, splitB, period int
}

func (c twinConfig) build(t testing.TB, reference bool) *MetaCache {
	t.Helper()
	cfg := Config{
		Size: c.size, Ways: c.ways, Policy: newPolicy(c.lru),
		Content: c.content, PartialWrites: c.partial, DisableFastPath: reference,
	}
	if c.ways > 1 {
		a, b := 1+c.splitA%(c.ways-1), 1+c.splitB%(c.ways-1)
		switch c.scheme {
		case 1:
			cfg.Partition = partition.NewStatic(a)
		case 2:
			d := partition.NewDynamic(a, b)
			d.LeaderPeriod = 2 + c.period%4
			cfg.Partition = d
		}
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if (m.ref == nil) == reference {
		t.Fatalf("%+v: reference=%v built packed sets=%v", c, reference, m.ref == nil)
	}
	return m
}

// twinOp is one step of a twin stream: an access, or a Flush.
type twinOp struct {
	flush bool
	addr  uint64
	kind  memlayout.Kind
	level int
	write bool
	slot  int
}

// checkTwin drives ops through a metadata cache on its packed sets and
// through one on the reference cache.Cache. Every access must return
// the same hit, tag hit and dirty victim, every Flush the same dirty blocks in the same
// (set/way) order, and every per-kind, per-level and cache counter
// must agree at the end.
func checkTwin(t testing.TB, c twinConfig, ops []twinOp) {
	t.Helper()
	fast, ref := c.build(t, false), c.build(t, true)
	for i, op := range ops {
		if op.flush {
			if f, r := fast.Flush(), ref.Flush(); !reflect.DeepEqual(f, r) {
				t.Fatalf("%+v: flush at op %d diverges:\nsets      %+v\nreference %+v", c, i, f, r)
			}
			continue
		}
		class := EncodeClass(op.kind, op.level)
		fh, ft, fa, ff := fast.Access(op.addr, class, op.write, op.slot)
		rh, rt, ra, rf := ref.Access(op.addr, class, op.write, op.slot)
		if fh != rh || ft != rt || fa != ra || ff != rf {
			t.Fatalf("%+v: op %d %+v diverges: sets (%v,%v,%#x,%#x), reference (%v,%v,%#x,%#x)",
				c, i, op, fh, ft, fa, ff, rh, rt, ra, rf)
		}
	}
	for _, k := range memlayout.MetaKinds {
		if f, r := fast.KindStats(k), ref.KindStats(k); f != r {
			t.Fatalf("%+v: %v stats diverge: sets %+v, reference %+v", c, k, f, r)
		}
	}
	for lv := 0; lv < 16; lv++ {
		if f, r := fast.LevelStats(lv), ref.LevelStats(lv); f != r {
			t.Fatalf("%+v: level %d stats diverge: sets %+v, reference %+v", c, lv, f, r)
		}
	}
	if f, r := fast.CacheStats(), ref.CacheStats(); f != r {
		t.Fatalf("%+v: cache stats diverge: sets %+v, reference %+v", c, f, r)
	}
	for kind := -1; kind <= int(memlayout.KindTree); kind++ {
		if f, r := fast.Occupancy(kind), ref.Occupancy(kind); f != r {
			t.Fatalf("%+v: occupancy of kind %d diverges: sets %d, reference %d", c, kind, f, r)
		}
	}
	if f, r := fast.Flush(), ref.Flush(); !reflect.DeepEqual(f, r) {
		t.Fatalf("%+v: final flush diverges: sets %d blocks, reference %d", c, len(f), len(r))
	}
}

// TestMetaSetsMatchCache holds the packed sets to the reference on
// random streams over every associativity an exhibit or sweep uses (4,
// 8 and 16 ways), both policies, every partition scheme, and partial
// writes on and off. Each stream spans four times the capacity with a
// hot subset and a Flush halfway through.
func TestMetaSetsMatchCache(t *testing.T) {
	for _, ways := range []int{4, 8, 16} {
		for _, lru := range []bool{false, true} {
			for scheme := 0; scheme < 3; scheme++ {
				for _, partial := range []bool{false, true} {
					c := twinConfig{
						size: 32 * ways * cache.BlockSize, ways: ways, lru: lru, partial: partial,
						scheme: scheme, splitA: ways / 4, splitB: ways / 2, period: 1,
					}
					t.Run(fmt.Sprintf("%dway-lru=%v-scheme%d-partial=%v", ways, lru, scheme, partial), func(t *testing.T) {
						lines := 32 * ways
						rng := rand.New(rand.NewSource(int64(lines + scheme)))
						ops := make([]twinOp, 20_000)
						for i := range ops {
							block := rng.Intn(4 * lines)
							if rng.Intn(2) == 0 {
								block = rng.Intn(lines/2 + 1)
							}
							ops[i] = twinOp{
								addr:  uint64(block)*cache.BlockSize + uint64(rng.Intn(cache.BlockSize)),
								kind:  memlayout.MetaKinds[rng.Intn(3)],
								level: rng.Intn(16),
								write: rng.Intn(3) == 0,
								slot:  rng.Intn(9) - 1,
							}
						}
						ops[len(ops)/2] = twinOp{flush: true}
						checkTwin(t, c, ops)
					})
				}
			}
		}
	}
}

// FuzzMetaSetsMatchCache is TestMetaSetsMatchCache's differential
// check on fuzzer-chosen configurations and streams. Byte 0 picks the
// policy (bit 0: LRU), partial writes (bit 1), the partition scheme
// (bits 2-3) and the content policy (bits 4-6, zero for all); byte 1
// the associativity (1 to 16), byte 2 the set count (1 to 16), and
// bytes 3-5 the partition splits and dynamic leader period. Every
// further four bytes are one step: a little-endian block number folded
// into twice the capacity, a byte holding the kind (low two bits, 0
// meaning a Flush instead of an access) and the tree level (upper
// bits), and a byte whose low bit is the write flag and whose next
// four bits, less 8, are the slot (negative for whole-block accesses).
func FuzzMetaSetsMatchCache(f *testing.F) {
	f.Add([]byte{0, 7, 2, 0, 0, 0, 1, 0, 1, 0, 2, 0, 5, 1, 1, 0, 2, 0})
	f.Add([]byte{1, 3, 0, 1, 2, 0, 0, 0, 3, 19, 9, 0, 0, 7, 1, 0, 0, 0, 0, 0})
	f.Add([]byte{0x0E, 15, 3, 3, 9, 1, 4, 0, 2, 20, 5, 0, 3, 0, 1, 0, 6, 1, 18, 0, 2, 0})
	f.Add([]byte{0x17, 8, 1, 2, 5, 2, 9, 0, 3, 23, 0, 1, 1, 25, 10, 0, 2, 27, 3, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		ways := 1 + int(data[1]%16)
		sets := 1 << (data[2] % 5)
		lines := sets * ways
		c := twinConfig{
			size: lines * cache.BlockSize, ways: ways,
			lru: data[0]&1 != 0, partial: data[0]&2 != 0,
			scheme: int(data[0]>>2&3) % 3, content: ContentPolicy(data[0] >> 4 & 7),
			splitA: int(data[3]), splitB: int(data[4]), period: int(data[5]),
		}
		var ops []twinOp
		for p := data[6:]; len(p) >= 4; p = p[4:] {
			kind := memlayout.Kind(p[2] & 3)
			if kind == memlayout.KindData {
				ops = append(ops, twinOp{flush: true})
				continue
			}
			block := uint64(binary.LittleEndian.Uint16(p)) % uint64(2*lines)
			slot := int(p[3]>>1&0xF) - 8
			if slot < 0 {
				slot = -1
			}
			ops = append(ops, twinOp{
				addr:  block * cache.BlockSize,
				kind:  kind,
				level: int(p[2] >> 2 & 0xF),
				write: p[3]&1 != 0,
				slot:  slot,
			})
		}
		checkTwin(t, c, ops)
	})
}

// TestAccessZeroAllocs pins the steady-state allocation cost of the
// hot paths at zero: neither the metadata cache's Access, on its
// packed sets or on the reference cache.Cache, nor cache.Cache's own
// Access may touch the heap once the cache is built.
func TestAccessZeroAllocs(t *testing.T) {
	var x uint64 = 1
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return (x >> 33 % (1 << 12)) * 64
	}
	c := cache.MustNew(8<<10, 8, policy.NewLRU())
	for _, reference := range []bool{false, true} {
		m := MustNew(Config{Size: 8 << 10, Ways: 8, PartialWrites: true, DisableFastPath: reference})
		for i := 0; i < 10_000; i++ { // steady state: all sets full
			m.Access(next(), EncodeClass(memlayout.MetaKinds[i%3], 0), i%3 == 0, i%9-1)
			c.Access(next(), i%3 == 0, cache.WholeBlock)
		}
		if avg := testing.AllocsPerRun(200, func() {
			m.Access(next(), hashClass, true, 3)
			m.Access(next(), counterClass, true, -1)
		}); avg != 0 {
			t.Errorf("DisableFastPath=%v: Access allocates %v per call, want 0", reference, avg)
		}
	}
	if avg := testing.AllocsPerRun(200, func() {
		c.Access(next(), true, cache.WholeBlock)
	}); avg != 0 {
		t.Errorf("cache.Access allocates %v per call, want 0", avg)
	}
}

// TestReach pins the address bound: the packed sets hold addresses
// below 2^48, a fill beyond it panics rather than alias another
// block, and the reference path has no bound.
func TestReach(t *testing.T) {
	fast := MustNew(Config{Size: 8 << 10, Ways: 8})
	ref := MustNew(Config{Size: 8 << 10, Ways: 8, DisableFastPath: true})
	if fast.Reach() != 1<<48 || ref.Reach() != ^uint64(0) {
		t.Fatalf("Reach: sets %#x, reference %#x", fast.Reach(), ref.Reach())
	}
	high := uint64(1)<<48 | 64
	ref.Access(high, counterClass, true, -1)
	if hit, _, _, _ := ref.Access(high, counterClass, false, -1); !hit {
		t.Error("reference path lost a high address")
	}
	defer func() {
		if recover() == nil {
			t.Error("packed sets accepted an address beyond their reach")
		}
	}()
	fast.Access(high, counterClass, true, -1)
}
