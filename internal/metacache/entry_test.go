package metacache

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/maps-sim/mapsim/internal/cache"
	"github.com/maps-sim/mapsim/internal/cache/eva"
	"github.com/maps-sim/mapsim/internal/cache/policy"
	"github.com/maps-sim/mapsim/internal/cache/typepred"
	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/partition"
)

// entryOracle is an independent model of Access: a bare cache.Cache
// driven with the options Access must derive, a partition scheme of
// its own, and per-kind and per-level counters kept apart, the way
// the metadata cache kept them before its counters became one array
// indexed by class.
type entryOracle struct {
	c        *cache.Cache
	part     partition.Scheme
	observer classObserver
	content  ContentPolicy
	partial  bool
	setMask  uint64
	perKind  [4]KindStats
	perLevel [16]KindStats
}

func newEntryOracle(t *testing.T, size, ways int, p cache.Policy, part partition.Scheme, content ContentPolicy, partial bool) *entryOracle {
	t.Helper()
	c, err := cache.New(size, ways, p)
	if err != nil {
		t.Fatal(err)
	}
	count, _ := cache.Geometry(size, ways)
	part.Reset(count, ways)
	o := &entryOracle{c: c, part: part, content: content, partial: partial, setMask: uint64(count - 1)}
	o.observer, _ = p.(classObserver)
	return o
}

// access is the oracle's Access.
func (o *entryOracle) access(addr uint64, class uint8, write bool, slot int) (hit, tagHit bool, evAddr, evFlags uint64) {
	kind, level := DecodeClass(class)
	count := func(f func(*KindStats)) {
		f(&o.perKind[kind])
		if kind == memlayout.KindTree {
			f(&o.perLevel[level])
		}
	}
	count(func(s *KindStats) { s.Accesses++ })
	if !o.content.Allows(kind) {
		count(func(s *KindStats) { s.Bypassed++ })
		return false, false, 0, 0
	}
	if o.observer != nil {
		o.observer.Observe(class, write)
	}
	set := int(addr / cache.BlockSize & o.setMask)
	if !o.partial || kind == memlayout.KindCounter {
		slot = -1
	}
	res := o.c.Access(addr, write, cache.Options{Class: class, Slot: slot, Partial: slot >= 0, Allowed: o.part.AllowedMask(set, kind)})
	o.part.Observe(set, kind, res.Hit)
	if res.Hit {
		count(func(s *KindStats) {
			s.Hits++
			if !res.SlotValid {
				s.PartialMiss++
			}
		})
	} else {
		count(func(s *KindStats) { s.Misses++ })
	}
	if res.Evicted.Valid && res.Evicted.Dirty {
		evAddr, evFlags = res.Evicted.Addr, uint64(res.Evicted.Class)|uint64(res.Evicted.ValidMask)<<8
	}
	return res.Hit && res.SlotValid, res.Hit, evAddr, evFlags
}

// TestEntryMatchesReference drives random streams through the engine
// entry, Access, on every content policy, partial writes on and off,
// and PLRU, LRU, EVA, the type predictor and PLRU under a static
// partition. Each stream goes to the cache as New builds it (packed
// sets for PLRU and LRU), to one with DisableFastPath, and to
// entryOracle. Every hit, tag hit and dirty victim must agree, and so
// must every KindStats, LevelStats, TotalStats and CacheStats at the
// end; each per-kind view must satisfy Accesses = Hits + Misses +
// Bypassed, and the tree levels must sum to KindStats(KindTree).
func TestEntryMatchesReference(t *testing.T) {
	const size, ways = 64 * 16, 4
	schemes := []struct {
		name   string
		policy func() cache.Policy
		part   func() partition.Scheme
	}{
		{"plru", func() cache.Policy { return policy.NewPLRU() }, nil},
		{"lru", func() cache.Policy { return policy.NewLRU() }, nil},
		{"eva", func() cache.Policy { return eva.New(eva.Config{}) }, nil},
		{"typepred", func() cache.Policy { return typepred.New() }, nil},
		{"plru-static", func() cache.Policy { return policy.NewPLRU() }, func() partition.Scheme { return partition.NewStatic(1) }},
	}
	for content := ContentPolicy(1); content <= AllTypes; content++ {
		for _, partial := range []bool{false, true} {
			for _, sc := range schemes {
				t.Run(fmt.Sprintf("%v/partial=%v/%s", content, partial, sc.name), func(t *testing.T) {
					newPart := sc.part
					if newPart == nil {
						newPart = func() partition.Scheme { return partition.NewNone() }
					}
					build := func(reference bool) *MetaCache {
						return MustNew(Config{
							Size: size, Ways: ways, Policy: sc.policy(), Content: content,
							PartialWrites: partial, Partition: newPart(), DisableFastPath: reference,
						})
					}
					got, ref := build(false), build(true)
					oracle := newEntryOracle(t, size, ways, sc.policy(), newPart(), content, partial)
					rng := rand.New(rand.NewSource(int64(content)<<8 | int64(len(sc.name))))
					for i := 0; i < 4000; i++ {
						addr := uint64(rng.Intn(96))*cache.BlockSize + uint64(rng.Intn(cache.BlockSize))
						class := EncodeClass(memlayout.MetaKinds[rng.Intn(3)], rng.Intn(16))
						write, slot := rng.Intn(3) == 0, rng.Intn(9)-1
						gh, gt, ga, gf := got.Access(addr, class, write, slot)
						rh, rt, ra, rf := ref.Access(addr, class, write, slot)
						oh, ot, oa, of := oracle.access(addr, class, write, slot)
						if gh != rh || gt != rt || ga != ra || gf != rf || gh != oh || gt != ot || ga != oa || gf != of {
							t.Fatalf("access %d (addr %#x class %#x write %v slot %d): entry (%v,%v,%#x,%#x), reference (%v,%v,%#x,%#x), oracle (%v,%v,%#x,%#x)",
								i, addr, class, write, slot, gh, gt, ga, gf, rh, rt, ra, rf, oh, ot, oa, of)
						}
					}
					checkEntryStats(t, got, ref, oracle)
				})
			}
		}
	}
}

// checkEntryStats compares every counter view of the entry's cache
// with the DisableFastPath reference and the oracle, and checks the
// views' identities.
func checkEntryStats(t *testing.T, got, ref *MetaCache, oracle *entryOracle) {
	t.Helper()
	var kinds, levels []KindStats
	for _, k := range memlayout.MetaKinds {
		g := got.KindStats(k)
		if r, o := ref.KindStats(k), oracle.perKind[k]; g != r || g != o {
			t.Errorf("%v stats: entry %+v, reference %+v, oracle %+v", k, g, r, o)
		}
		if g.Accesses != g.Hits+g.Misses+g.Bypassed {
			t.Errorf("%v stats: Accesses %d != Hits + Misses + Bypassed in %+v", k, g.Accesses, g)
		}
		kinds = append(kinds, g)
	}
	for lv := 0; lv < 16; lv++ {
		g := got.LevelStats(lv)
		if r, o := ref.LevelStats(lv), oracle.perLevel[lv]; g != r || g != o {
			t.Errorf("level %d stats: entry %+v, reference %+v, oracle %+v", lv, g, r, o)
		}
		levels = append(levels, g)
	}
	if lv, tree := sum(levels), got.KindStats(memlayout.KindTree); lv != tree {
		t.Errorf("tree levels sum to %+v, KindStats(KindTree) is %+v", lv, tree)
	}
	total := sum(kinds)
	if g, r := got.TotalStats(), ref.TotalStats(); g != total || r != total {
		t.Errorf("TotalStats: entry %+v, reference %+v, kinds sum to %+v", g, r, total)
	}
	g, r, o := got.CacheStats(), ref.CacheStats(), oracle.c.Stats()
	if g != r || g != o {
		t.Errorf("CacheStats: entry %+v, reference %+v, oracle %+v", g, r, o)
	}
	if cached := total.Hits + total.Misses; g.Accesses != cached || g.Hits != total.Hits || g.PartialMiss != total.PartialMiss {
		t.Errorf("CacheStats %+v disagree with the per-kind counters %+v", g, total)
	}
}
