// Package metacache implements the on-chip metadata cache at the
// heart of MAPS: a set-associative cache shared by encryption
// counters, data hashes, and integrity-tree nodes, with configurable
// content policies (which types may be cached), partial writes for
// hash/tree blocks, way partitioning, and per-type statistics.
package metacache

import (
	"fmt"
	"strings"

	"github.com/maps-sim/mapsim/internal/cache"
	"github.com/maps-sim/mapsim/internal/cache/policy"
	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/partition"
)

// ContentPolicy is a bitmask of metadata kinds the cache may hold.
// Accesses to excluded kinds bypass the cache and always go to
// memory.
type ContentPolicy uint8

// Content bits.
const (
	Counters ContentPolicy = 1 << iota
	Hashes
	TreeNodes
)

// Named combinations studied in Figure 1 (and the text's "other
// configurations").
const (
	CountersOnly   = Counters
	CountersHashes = Counters | Hashes
	AllTypes       = Counters | Hashes | TreeNodes
	HashesOnly     = Hashes
	TreeOnly       = TreeNodes
	CountersTree   = Counters | TreeNodes
	HashesTree     = Hashes | TreeNodes
)

// Allows reports whether the policy admits a kind.
func (p ContentPolicy) Allows(kind memlayout.Kind) bool {
	switch kind {
	case memlayout.KindCounter:
		return p&Counters != 0
	case memlayout.KindHash:
		return p&Hashes != 0
	case memlayout.KindTree:
		return p&TreeNodes != 0
	default:
		return false
	}
}

// String names the policy as in Figure 1's legend.
func (p ContentPolicy) String() string {
	switch p {
	case CountersOnly:
		return "counters"
	case CountersHashes:
		return "counters+hashes"
	case AllTypes:
		return "all"
	case HashesOnly:
		return "hashes"
	case TreeOnly:
		return "tree"
	case CountersTree:
		return "counters+tree"
	case HashesTree:
		return "hashes+tree"
	default:
		return fmt.Sprintf("ContentPolicy(%#x)", uint8(p))
	}
}

// ParseContent resolves a content-policy name ("counters",
// "counters+hashes", "all", "hashes", "tree", "counters+tree",
// "hashes+tree") — the inverse of String. The CLI flags and the
// mapsd wire format share it.
func ParseContent(name string) (ContentPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "counters":
		return CountersOnly, nil
	case "counters+hashes":
		return CountersHashes, nil
	case "all", "":
		return AllTypes, nil
	case "hashes":
		return HashesOnly, nil
	case "tree":
		return TreeOnly, nil
	case "counters+tree":
		return CountersTree, nil
	case "hashes+tree":
		return HashesTree, nil
	default:
		return 0, fmt.Errorf("metacache: unknown content policy %q", name)
	}
}

// EncodeClass packs a metadata kind and tree level into the cache
// framework's class byte.
func EncodeClass(kind memlayout.Kind, level int) uint8 {
	return uint8(kind)<<4 | uint8(level&0xF)
}

// DecodeClass unpacks EncodeClass.
func DecodeClass(c uint8) (memlayout.Kind, int) {
	return memlayout.Kind(c >> 4), int(c & 0xF)
}

// Config assembles a metadata cache.
type Config struct {
	// Size is the capacity in bytes; Ways the associativity.
	Size, Ways int
	// Policy is the replacement policy; nil selects pseudo-LRU, the
	// paper's baseline.
	Policy cache.Policy
	// Content selects which kinds may be cached; zero means all.
	Content ContentPolicy
	// PartialWrites enables placeholder insertion for hash and tree
	// write misses (§IV-E).
	PartialWrites bool
	// Partition constrains counter/hash placement; nil means none.
	Partition partition.Scheme
	// DisableFastPath runs a built-in PLRU or LRU policy on
	// cache.Cache's generic Policy-interface path instead of the
	// metadata cache's own sets. Results are bit-identical by
	// contract; the cross-check tests use this to prove it.
	DisableFastPath bool
}

// KindStats counts per-kind activity. Accesses = Hits + Misses +
// Bypassed: requests for kinds the content policy excludes never
// enter the cache, so — matching the paper's Figure 1 metric — they
// are tracked as Bypassed rather than Misses (they still cost a
// memory access, which the engine's traffic counters capture).
type KindStats struct {
	Accesses    uint64
	Hits        uint64
	Misses      uint64
	Bypassed    uint64
	PartialMiss uint64
}

// Evicted describes a displaced dirty block.
type Evicted struct {
	Addr  uint64
	Kind  memlayout.Kind
	Level int
	// Partial reports an incompletely-filled hash/tree block; the
	// writeback needs one fill read first.
	Partial bool
}

// classRow maps each class byte to its row of MetaCache.counts:
// counters, hashes, then one per tree level. A class of no metadata
// kind maps to 0xFF, which fails the bounds check.
var classRow = func() (rows [256]uint8) {
	for c := range rows {
		rows[c] = 0xFF
		switch kind, level := DecodeClass(uint8(c)); kind {
		case memlayout.KindCounter, memlayout.KindHash:
			rows[c] = uint8(kind) - 1
		case memlayout.KindTree:
			rows[c] = 2 + uint8(level)
		}
	}
	return rows
}()

// MetaCache is the type-aware metadata cache. A built-in PLRU or LRU
// policy runs on the cache's own packed sets; any other policy, a
// wider cache, or DisableFastPath runs on ref, a cache.Cache driving
// the policy through its Policy interface.
type MetaCache struct {
	// The fields an access reads come first, so that they share host
	// cache lines: the packed sets, or ref when they are not in use,
	// and the per-access invariants resolved once at New — the
	// policy's optional class observer, whether the partition scheme
	// is the no-op None (whose mask is constant and observer empty),
	// and the content/partial-write policies flattened into per-kind
	// tables.
	sets        sets
	ref         *cache.Cache
	observer    classObserver
	noPartition bool
	allow       [4]bool
	partialOK   [4]bool
	fullMask    uint64
	setMask     uint64
	// counts holds each lookup's outcome once, in its class's row
	// (classRow); every stats view sums it on read.
	counts [2 + 16]KindStats
	cfg    Config
}

// classObserver is the optional per-class learning hook type-aware
// policies implement; detected once instead of asserted per access.
type classObserver interface{ Observe(class uint8, write bool) }

// New builds a metadata cache.
func New(cfg Config) (*MetaCache, error) {
	if cfg.Policy == nil {
		cfg.Policy = policy.NewPLRU()
	}
	if cfg.Content == 0 {
		cfg.Content = AllTypes
	}
	count, err := cache.Geometry(cfg.Size, cfg.Ways)
	if err != nil {
		return nil, fmt.Errorf("metacache: %w", err)
	}
	m := &MetaCache{cfg: cfg, setMask: uint64(count - 1)}
	_, lru := cfg.Policy.(*policy.LRU)
	_, plru := cfg.Policy.(*policy.PLRU)
	if (lru || plru) && cfg.Ways <= maxSetWays && !cfg.DisableFastPath {
		// The sets replicate the policy, so it is never consulted.
		m.sets = newSets(count, cfg.Ways, lru)
	} else if m.ref, err = cache.New(cfg.Size, cfg.Ways, cfg.Policy); err != nil {
		return nil, fmt.Errorf("metacache: %w", err)
	}
	if m.cfg.Partition == nil {
		m.cfg.Partition = partition.NewNone()
	}
	m.cfg.Partition.Reset(count, cfg.Ways)
	m.observer, _ = cfg.Policy.(classObserver)
	if _, none := m.cfg.Partition.(*partition.None); none {
		m.noPartition = true
		m.fullMask = m.cfg.Partition.AllowedMask(0, memlayout.KindCounter)
	}
	for _, k := range memlayout.MetaKinds {
		m.allow[k] = cfg.Content.Allows(k)
	}
	if cfg.PartialWrites {
		m.partialOK[memlayout.KindHash] = true
		m.partialOK[memlayout.KindTree] = true
	}
	return m, nil
}

// Reach reports the bound every address the cache is given must stay
// below: the packed sets keep class and slot bits above the block
// address in each line word. A layout whose TotalBytes exceeds it must
// not be simulated with this cache.
func (m *MetaCache) Reach() uint64 {
	if m.ref == nil {
		return maxAddr
	}
	return ^uint64(0)
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *MetaCache {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Size reports capacity in bytes.
func (m *MetaCache) Size() int { return m.cfg.Size }

// Content reports the content policy.
func (m *MetaCache) Content() ContentPolicy { return m.cfg.Content }

// PolicyName reports the replacement policy name.
func (m *MetaCache) PolicyName() string { return m.cfg.Policy.Name() }

// PartialWrites reports whether write-miss placeholders are enabled.
func (m *MetaCache) PartialWrites() bool { return m.cfg.PartialWrites }

// sum adds rows of counts up, deriving Accesses from the disjoint
// components the hot path maintains.
func sum(rows []KindStats) (t KindStats) {
	for _, r := range rows {
		t.Hits += r.Hits
		t.Misses += r.Misses
		t.Bypassed += r.Bypassed
		t.PartialMiss += r.PartialMiss
	}
	t.Accesses = t.Hits + t.Misses + t.Bypassed
	return t
}

// KindStats returns per-kind counters.
func (m *MetaCache) KindStats(kind memlayout.Kind) KindStats {
	switch kind {
	case memlayout.KindCounter, memlayout.KindHash:
		return sum(m.counts[kind-1 : kind])
	case memlayout.KindTree:
		return sum(m.counts[2:])
	}
	return KindStats{}
}

// LevelStats returns the counters for tree accesses at one level
// (leaf = 0). The paper's observation that upper levels cache better
// (they cover more data) is directly visible here.
func (m *MetaCache) LevelStats(level int) KindStats {
	i := classRow[EncodeClass(memlayout.KindTree, level)]
	return sum(m.counts[i : i+1])
}

// TotalStats sums the per-kind counters over metadata kinds.
func (m *MetaCache) TotalStats() KindStats { return sum(m.counts[:]) }

// CacheStats exposes the underlying cache counters.
func (m *MetaCache) CacheStats() cache.Stats {
	if m.ref != nil {
		return m.ref.Stats()
	}
	return m.sets.stats(sum(m.counts[:]))
}

// ResetStats zeroes all statistics (contents persist), for warmup.
func (m *MetaCache) ResetStats() {
	clear(m.counts[:])
	if m.ref != nil {
		m.ref.ResetStats()
	} else {
		m.sets.evictions, m.sets.dirtyEvicts = 0, 0
	}
}

// Occupancy counts resident lines of one kind (-1 for all).
func (m *MetaCache) Occupancy(kind int) int {
	occupancy := m.sets.occupancy
	if m.ref != nil {
		occupancy = m.ref.Occupancy
	}
	if kind < 0 {
		return occupancy(-1)
	}
	n := 0
	for level := 0; level < 16; level++ {
		n += occupancy(int(EncodeClass(memlayout.Kind(kind), level)))
	}
	return n
}

// Access looks up the block at addr for class (EncodeClass(kind,
// level)), filling it on a miss; a class the content policy excludes is
// counted as bypassed instead. slot addresses an 8 B entry for
// hash/tree partial writes, -1 the whole block. hit means no memory
// access is needed; tagHit that the block was present, even if the
// slot was not. evFlags is non-zero when the fill displaced a dirty
// block, which DecodeEvicted(evAddr, evFlags) describes.
func (m *MetaCache) Access(addr uint64, class uint8, write bool, slot int) (hit, tagHit bool, evAddr, evFlags uint64) {
	st := &m.counts[classRow[class]]
	kind := memlayout.Kind(class >> 4 & 3)
	if !m.allow[kind] {
		st.Bypassed++
		return false, false, 0, 0
	}

	// Type-aware predictors learn from the (kind, level, request
	// type) signature of each access.
	if m.observer != nil {
		m.observer.Observe(class, write)
	}

	var set int
	var allowed uint64
	if m.noPartition {
		allowed = m.fullMask
	} else {
		set = int(addr / cache.BlockSize & m.setMask)
		allowed = m.cfg.Partition.AllowedMask(set, kind)
	}

	// Whole-block accesses (counters, tree verification, and all
	// traffic when partial writes are off) carry no slot.
	if !m.partialOK[kind] {
		slot = -1
	}
	// evFlags is the displaced dirty line's class | slot mask<<8, zero
	// when none: a valid line's slot mask is never zero.
	var slotValid bool
	if m.ref == nil {
		tagHit, slotValid, evAddr, evFlags = m.sets.access(addr&^(cache.BlockSize-1), write, class, slot, allowed)
	} else {
		res := m.ref.Access(addr, write, cache.Options{Class: class, Slot: slot, Partial: slot >= 0, Allowed: allowed})
		tagHit, slotValid = res.Hit, res.SlotValid
		if res.Evicted.Valid && res.Evicted.Dirty {
			evAddr = res.Evicted.Addr
			evFlags = uint64(res.Evicted.Class) | uint64(res.Evicted.ValidMask)<<8
		}
	}

	if !m.noPartition {
		m.cfg.Partition.Observe(set, kind, tagHit)
	}

	if !tagHit {
		st.Misses++
		return false, false, evAddr, evFlags
	}
	st.Hits++
	if !slotValid {
		st.PartialMiss++
	}
	return slotValid, true, evAddr, evFlags
}

// Bypass counts a request of class that the content policy keeps out
// of the cache, for a caller that has resolved the policy itself.
func (m *MetaCache) Bypass(class uint8) { m.counts[classRow[class]].Bypassed++ }

// DecodeEvicted describes the dirty block Access displaced, from its
// evAddr and non-zero evFlags.
func DecodeEvicted(addr, flags uint64) Evicted { return evicted(addr, flags) }

// evicted describes a displaced dirty block from its address and its
// class | slot mask<<8.
func evicted(addr, flags uint64) Evicted {
	k, lev := DecodeClass(uint8(flags))
	return Evicted{Addr: addr, Kind: k, Level: lev, Partial: uint8(flags>>8) != cache.FullMask}
}

// Flush evicts everything, returning the dirty blocks in set/way order
// for final writeback accounting.
func (m *MetaCache) Flush() []Evicted {
	if m.ref == nil {
		return m.sets.flush(nil)
	}
	var out []Evicted
	for _, l := range m.ref.Flush() {
		out = append(out, evicted(l.Addr, uint64(l.Class)|uint64(l.ValidMask)<<8))
	}
	return out
}
