// Package cache provides the set-associative cache simulator used for
// the metadata cache. It supports pluggable replacement policies,
// write-back dirty tracking, per-8B-slot valid bits (for the
// partial-write optimization studied in MAPS §IV-E), victim-candidate
// masks (for way partitioning), and caller-defined block classes
// (metadata types). The processor cache hierarchy keeps its own
// recency-ordered true-LRU levels (internal/hierarchy) and uses a
// Cache only as their reference model: Geometry is the shape rule
// both share, and Stats the counters both report.
package cache

import (
	"fmt"
	"math/bits"
)

// BlockSize is the line size in bytes; 64 B throughout the paper.
const BlockSize = 64

// SlotsPerLine is the number of independently-valid 8 B slots per
// line, used by partial writes.
const SlotsPerLine = 8

// FullMask marks every slot of a line valid.
const FullMask uint8 = 0xFF

// MaxWays bounds associativity so victim-candidate masks fit in a
// uint64.
const MaxWays = 64

// Line is one cache frame.
type Line struct {
	// Addr is the block-aligned address held by the frame.
	Addr uint64
	// Class is a caller-defined block classification (the metadata
	// cache stores the metadata kind and tree level here).
	Class uint8
	// Valid reports whether the frame holds a block.
	Valid bool
	// Dirty reports whether the block must be written back.
	Dirty bool
	// ValidMask tracks which 8 B slots hold real data. FullMask for
	// ordinary lines; sparse for partial-write placeholders.
	ValidMask uint8
}

// Policy is a replacement policy. Implementations keep per-set state
// sized by Reset and choose victims among an allowed-way mask so the
// same policy composes with way partitioning.
//
// Policies that must observe every access before lookup (offline
// policies like MIN that advance future knowledge) additionally
// implement AccessObserver; the cache only pays that call for
// policies that ask for it.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Reset (re)initializes state for a cache geometry.
	Reset(sets, ways int)
	// OnHit observes a hit in set/way.
	OnHit(set, way int, line *Line, write bool)
	// OnInsert observes a fill into set/way.
	OnInsert(set, way int, line *Line)
	// OnEvict observes an eviction from set/way.
	OnEvict(set, way int, line *Line)
	// Victim picks the way to evict. Every set bit of allowed is a
	// candidate way holding a valid line; allowed is never zero.
	Victim(set int, lines []Line, allowed uint64) int
}

// AccessObserver is the optional pre-lookup hook: OnAccess observes
// every access, hit or miss, before the tag check. It was part of
// Policy itself, but nearly every policy left it a no-op while the
// cache paid an interface dispatch per access; now only policies
// that implement it are called.
type AccessObserver interface {
	// OnAccess observes every access before lookup, hit or miss.
	OnAccess(addr uint64, write bool)
}

// InlineKind identifies a built-in replacement policy whose
// touch/victim logic the cache inlines into its hot path, bypassing
// the Policy interface entirely (devirtualization).
type InlineKind uint8

// Inline kinds. InlineNone means every policy hook goes through the
// Policy interface.
const (
	InlineNone InlineKind = iota
	// InlineLRU is true least-recently-used (policy.LRU semantics).
	InlineLRU
	// InlinePLRU is MRU-bit pseudo-LRU (policy.PLRU semantics).
	InlinePLRU
)

// Inlinable marks a policy whose behaviour the cache may replicate
// inline. The contract is strict: the inlined implementation must be
// bit-identical to the policy's own hooks for every access sequence
// (the policy object itself is then never consulted on the hot
// path). A type that embeds an Inlinable policy but changes its
// behaviour must override InlineKind to return InlineNone, or wrap
// itself with policy.Generic.
type Inlinable interface {
	// InlineKind reports which built-in logic the cache may inline.
	InlineKind() InlineKind
}

// Options modifies a single Access.
type Options struct {
	// Class is recorded on the line at insertion.
	Class uint8
	// Slot, when >= 0, addresses one 8 B slot of the line for
	// ValidMask bookkeeping. Use -1 for whole-block accesses.
	Slot int
	// Partial inserts a write-miss placeholder whose ValidMask covers
	// only Slot, instead of fetching the whole block.
	Partial bool
	// NoAlloc bypasses the cache on a miss (no insertion).
	NoAlloc bool
	// Allowed restricts victim selection (and invalid-frame choice)
	// to the set bits; zero means every way.
	Allowed uint64
}

// WholeBlock is the Options zero-value helper for plain accesses.
var WholeBlock = Options{Slot: -1}

// Result reports what one Access did.
type Result struct {
	// Hit reports a tag match on a valid line.
	Hit bool
	// SlotValid reports whether the requested slot held data at hit
	// time. Always true for whole-block hits. A hit with
	// SlotValid=false still costs a memory access.
	SlotValid bool
	// Inserted reports that the block was filled on a miss.
	Inserted bool
	// Evicted is the displaced line; Evicted.Valid reports whether an
	// eviction happened.
	Evicted Line
}

// Stats aggregates cache activity.
type Stats struct {
	Accesses    uint64
	Hits        uint64
	Misses      uint64
	PartialMiss uint64 // hits whose requested slot was invalid
	Inserts     uint64
	Evictions   uint64
	DirtyEvicts uint64
}

// MissRate returns misses/accesses, 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a set-associative, write-back, write-allocate cache model.
// It tracks tags and per-line state only; data movement is the
// caller's concern.
type Cache struct {
	sets    int
	ways    int
	shift   uint
	setMask uint64 // sets-1; set count is a power of two
	policy  Policy
	lines   []Line
	// meta packs each set's hot state into three adjacent stripes of
	// ways words each, at stride 3*ways per set:
	//
	//	meta[base+w]        tag: Addr | 1, or 0 when invalid
	//	meta[base+ways+w]   inlined-LRU last-use clock
	//	meta[base+2*ways+w] flags: Class<<16 | ValidMask<<8 | Dirty
	//
	// A probe, a recency update, and the dirty/valid bookkeeping all
	// land in consecutive cache lines, and on the devirtualized
	// LRU/PLRU path the Line structs are never touched at all: lines
	// is kept in sync only for generic policies (whose interface
	// traffics in *Line) and is refreshed lazily by Probe. Bit 0 of
	// the tag is free because addresses are block aligned.
	meta []uint64
	// valid holds one bit per way per set: which frames hold a block.
	// It turns the miss path's free-way scan and victim-candidate mask
	// into two bitwise ops.
	valid []uint64
	// fullWays is the all-ways candidate mask, (1<<ways)-1.
	fullWays uint64
	stats    Stats

	// Devirtualized fast path: when the policy is a built-in LRU or
	// PLRU (detected at New time via Inlinable), the cache runs an
	// inlined, bit-identical copy of its logic and never calls the
	// Policy interface on the hot path.
	inline InlineKind
	// observer is non-nil only for policies that implement
	// AccessObserver; everyone else skips the per-access call.
	observer AccessObserver
	// lruClock replicates policy.LRU's clock (inline path; the
	// per-frame stamps live in meta).
	lruClock uint64
	// plruMRU replicates policy.PLRU state (inline path).
	plruMRU []uint64
}

// Geometry checks a cache shape and returns its set count: ways must
// lie in [1, MaxWays] and size must split into a power-of-two number
// of ways-way sets of BlockSize lines. New applies it, and so does
// any other model of the same geometry.
func Geometry(size, ways int) (sets int, err error) {
	if ways <= 0 || ways > MaxWays {
		return 0, fmt.Errorf("cache: ways %d out of range [1,%d]", ways, MaxWays)
	}
	if size <= 0 || size%(BlockSize*ways) != 0 {
		return 0, fmt.Errorf("cache: size %d not divisible into %d-way sets of %d B lines", size, ways, BlockSize)
	}
	sets = size / (BlockSize * ways)
	if sets&(sets-1) != 0 {
		return 0, fmt.Errorf("cache: set count %d is not a power of two", sets)
	}
	return sets, nil
}

// New creates a cache of size bytes with the given associativity.
// size and ways must pass Geometry.
func New(size, ways int, policy Policy) (*Cache, error) {
	sets, err := Geometry(size, ways)
	if err != nil {
		return nil, err
	}
	c := &Cache{
		sets:    sets,
		ways:    ways,
		shift:   uint(bits.TrailingZeros(uint(BlockSize))),
		setMask: uint64(sets - 1),
		policy:  policy,
		meta:    make([]uint64, sets*ways*3),
		valid:   make([]uint64, sets),
	}
	c.fullWays = ^uint64(0)
	if ways < MaxWays {
		c.fullWays = 1<<uint(ways) - 1
	}
	if il, ok := policy.(Inlinable); ok {
		switch il.InlineKind() {
		case InlineLRU:
			c.inline = InlineLRU
		case InlinePLRU:
			c.inline = InlinePLRU
			c.plruMRU = make([]uint64, sets)
		}
	}
	if c.inline == InlineNone {
		// The Line array backs the Policy interface; devirtualized
		// caches never consult it (Probe materializes it on demand),
		// so skipping the allocation saves the dominant share of a
		// cache's footprint — 768 KB for the 2 MB LLC.
		c.lines = make([]Line, sets*ways)
	}
	c.observer, _ = policy.(AccessObserver)
	policy.Reset(sets, ways)
	return c, nil
}

// MustNew is New but panics on error.
func MustNew(size, ways int, policy Policy) *Cache {
	c, err := New(size, ways, policy)
	if err != nil {
		panic(err)
	}
	return c
}

// Sets reports the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways reports the associativity.
func (c *Cache) Ways() int { return c.ways }

// SizeBytes reports the capacity.
func (c *Cache) SizeBytes() int { return c.sets * c.ways * BlockSize }

// Policy returns the replacement policy.
func (c *Cache) Policy() Policy { return c.policy }

// Inlined reports which built-in policy logic, if any, the cache
// runs devirtualized. Tests use it to assert fast-path engagement.
func (c *Cache) Inlined() InlineKind { return c.inline }

// Stats returns a copy of the counters. Accesses is derived as
// Hits+Misses on read; the hot paths do not maintain it separately
// (one fewer read-modify-write per access).
func (c *Cache) Stats() Stats {
	s := c.stats
	s.Accesses = s.Hits + s.Misses
	return s
}

// ResetStats zeroes the counters, e.g. after warmup.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// SetOf returns the set index for addr. The set count is a power of
// two, so this is a shift and mask — no division on the hot path.
func (c *Cache) SetOf(addr uint64) int {
	return int((addr >> c.shift) & c.setMask)
}

// setLines returns the ways of one set.
func (c *Cache) setLines(set int) []Line {
	return c.lines[set*c.ways : (set+1)*c.ways]
}

// flagDirty is bit 0 of a meta flags word; ValidMask occupies bits
// 8-15 and Class bits 16-23.
const flagDirty = 1 << 0

func packFlags(class uint8, dirty bool, vmask uint8) uint64 {
	f := uint64(class)<<16 | uint64(vmask)<<8
	if dirty {
		f |= flagDirty
	}
	return f
}

// lineAt reconstructs the Line for a valid frame from its meta
// stripes (the authoritative state on the devirtualized path).
func (c *Cache) lineAt(set, way int) Line {
	base := set * 3 * c.ways
	f := c.meta[base+2*c.ways+way]
	return Line{
		Addr:      c.meta[base+way] &^ 1,
		Class:     uint8(f >> 16),
		Valid:     true,
		Dirty:     f&flagDirty != 0,
		ValidMask: uint8(f >> 8),
	}
}

// Probe reports whether addr is present, without touching policy
// state or statistics. It returns the line for inspection (nil on
// absence).
func (c *Cache) Probe(addr uint64) *Line {
	addr = align(addr)
	set := c.SetOf(addr)
	base := set * 3 * c.ways
	for w := 0; w < c.ways; w++ {
		if c.meta[base+w] == addr|1 {
			idx := set*c.ways + w
			if c.inline != InlineNone {
				// lines is not maintained (or even allocated) on the
				// fast path; materialize this frame before handing out
				// the pointer.
				if c.lines == nil {
					c.lines = make([]Line, c.sets*c.ways)
				}
				c.lines[idx] = c.lineAt(set, w)
			}
			return &c.lines[idx]
		}
	}
	return nil
}

// Access performs one cache access. addr is block-aligned by the
// cache. On a miss with allocation, the returned Result.Evicted holds
// any displaced line.
func (c *Cache) Access(addr uint64, write bool, opt Options) Result {
	addr = align(addr)
	if c.observer != nil {
		c.observer.OnAccess(addr, write)
	}

	set := c.SetOf(addr)
	mbase := set * 3 * c.ways
	tags := c.meta[mbase : mbase+c.ways]
	key := addr | 1
	for w := range tags {
		if tags[w] == key {
			if opt.Slot < 0 {
				// Whole-block hit, inlined: the Line array is not
				// touched at all on the devirtualized path.
				c.stats.Hits++
				if write {
					c.meta[mbase+2*c.ways+w] |= flagDirty
				}
				switch c.inline {
				case InlineLRU:
					c.lruClock++
					c.meta[mbase+c.ways+w] = c.lruClock
				case InlinePLRU:
					c.touch(set, w)
				default:
					line := &c.lines[set*c.ways+w]
					if write {
						line.Dirty = true
					}
					c.policy.OnHit(set, w, line, write)
				}
				return Result{Hit: true, SlotValid: true}
			}
			return c.hit(set, w, write, opt)
		}
	}

	// Miss path, merged into the kernel: the call overhead and a
	// per-way free-frame scan both showed up in profiles. The slot
	// bound is checked here and in hit so the whole-block fast path
	// (Slot < 0) never pays for it.
	if opt.Slot >= SlotsPerLine {
		panic(fmt.Sprintf("cache: slot %d out of range", opt.Slot))
	}
	c.stats.Misses++
	if opt.NoAlloc {
		return Result{}
	}
	allowed := opt.Allowed
	if allowed == 0 {
		allowed = ^uint64(0)
	}
	if c.ways < 64 {
		allowed &= (1 << uint(c.ways)) - 1
	}
	if allowed == 0 {
		panic("cache: empty allowed-way mask")
	}

	fbase := mbase + 2*c.ways
	mask := FullMask
	if opt.Partial && write && opt.Slot >= 0 {
		mask = 1 << uint(opt.Slot)
	}

	var way int
	var evAddr, evf uint64
	evicted := false
	if free := allowed &^ c.valid[set]; free != 0 {
		// Lowest allowed invalid frame, as the scan used to find.
		way = bits.TrailingZeros64(free)
	} else {
		validAllowed := allowed & c.valid[set]
		if c.inline != InlineNone {
			way = c.victim(set, validAllowed)
		} else {
			way = c.policy.Victim(set, c.setLines(set), validAllowed)
			if way < 0 || way >= c.ways || validAllowed&(1<<uint(way)) == 0 {
				panic(fmt.Sprintf("cache: policy %s chose disallowed victim way %d (mask %#x)", c.policy.Name(), way, validAllowed))
			}
		}
		evAddr = c.meta[mbase+way] &^ 1
		evf = c.meta[fbase+way]
		evicted = true
		if c.inline == InlineNone {
			c.policy.OnEvict(set, way, &c.setLines(set)[way])
		}
		c.stats.Evictions++
		if evf&flagDirty != 0 {
			c.stats.DirtyEvicts++
		}
	}

	c.meta[mbase+way] = key
	c.meta[fbase+way] = packFlags(opt.Class, write, mask)
	c.valid[set] |= 1 << uint(way)
	c.stats.Inserts++
	if c.inline != InlineNone {
		c.touch(set, way)
	} else {
		ls := c.setLines(set)
		ls[way] = Line{Addr: addr, Class: opt.Class, Valid: true, Dirty: write, ValidMask: mask}
		c.policy.OnInsert(set, way, &ls[way])
	}
	if !evicted {
		return Result{Inserted: true}
	}
	// The Result is assembled in the return itself so the evicted
	// line's fields stay in registers instead of bouncing through a
	// stack slot (this store dominated the miss path in profiles).
	return Result{Inserted: true, Evicted: Line{
		Addr:      evAddr,
		Class:     uint8(evf >> 16),
		Valid:     true,
		Dirty:     evf&flagDirty != 0,
		ValidMask: uint8(evf >> 8),
	}}
}

// FastAccessClassed is the whole-block entry point used by the
// metadata cache: Access(addr, write, Options{Class: class, Slot: -1,
// Allowed: allowed}) narrowed to registers. evFlags is the displaced
// dirty line's packed flags word (Class<<16 | ValidMask<<8 | Dirty),
// or zero when nothing dirty was displaced — a valid line always has
// a nonzero ValidMask, so zero is unambiguous. Clean evictions are
// counted in the stats but not reported, matching what the metadata
// cache consumes. Generic (non-inlined) policies divert to Access so
// behaviour is identical for every policy.
func (c *Cache) FastAccessClassed(addr uint64, write bool, class uint8, allowed uint64) (hit bool, evAddr, evFlags uint64) {
	if c.inline == InlineNone {
		r := c.Access(addr, write, Options{Class: class, Slot: -1, Allowed: allowed})
		if r.Evicted.Valid && r.Evicted.Dirty {
			return r.Hit, r.Evicted.Addr, packFlags(r.Evicted.Class, true, r.Evicted.ValidMask)
		}
		return r.Hit, 0, 0
	}
	addr = align(addr)
	if c.observer != nil {
		c.observer.OnAccess(addr, write)
	}
	set := c.SetOf(addr)
	mbase := set * 3 * c.ways
	tags := c.meta[mbase : mbase+c.ways]
	key := addr | 1
	for w := range tags {
		if tags[w] == key {
			c.stats.Hits++
			if write {
				c.meta[mbase+2*c.ways+w] |= flagDirty
			}
			if c.inline == InlineLRU {
				c.lruClock++
				c.meta[mbase+c.ways+w] = c.lruClock
			} else {
				c.touch(set, w)
			}
			return true, 0, 0
		}
	}
	c.stats.Misses++
	if allowed == 0 {
		allowed = c.fullWays
	} else {
		allowed &= c.fullWays
	}
	if allowed == 0 {
		panic("cache: empty allowed-way mask")
	}
	var way int
	if free := allowed &^ c.valid[set]; free != 0 {
		way = bits.TrailingZeros64(free)
	} else {
		way = c.victim(set, allowed&c.valid[set])
		f := c.meta[mbase+2*c.ways+way]
		c.stats.Evictions++
		if f&flagDirty != 0 {
			c.stats.DirtyEvicts++
			evAddr = c.meta[mbase+way] &^ 1
			evFlags = f
		}
	}
	c.meta[mbase+way] = key
	c.meta[mbase+2*c.ways+way] = packFlags(class, write, FullMask)
	c.valid[set] |= 1 << uint(way)
	c.stats.Inserts++
	c.touch(set, way)
	return false, evAddr, evFlags
}

// touch is the inlined LRU/PLRU use-marking, bit-identical to
// policy.LRU.OnHit/OnInsert and policy.PLRU.OnHit/OnInsert. Callers
// guarantee c.inline != InlineNone.
func (c *Cache) touch(set, way int) {
	if c.inline == InlineLRU {
		c.lruClock++
		c.meta[set*3*c.ways+c.ways+way] = c.lruClock
		return
	}
	// PLRU: set the MRU bit; when the set saturates, keep only it.
	full := uint64(1)<<uint(c.ways) - 1
	m := c.plruMRU[set] | 1<<uint(way)
	if m == full {
		m = 1 << uint(way)
	}
	c.plruMRU[set] = m
}

// victim is the inlined LRU/PLRU victim choice, bit-identical to the
// corresponding Policy implementations. Callers guarantee c.inline
// != InlineNone and allowed != 0.
func (c *Cache) victim(set int, allowed uint64) int {
	if c.inline == InlineLRU {
		lru := set*3*c.ways + c.ways
		if allowed == c.fullWays {
			// Unrestricted victim choice (an unpartitioned cache): a
			// straight scan of the stamp stripe, no mask iteration.
			// Stamps are distinct (each is a unique clock value), so
			// the first minimum is the minimum.
			stamps := c.meta[lru : lru+c.ways]
			best, bestT := 0, stamps[0]
			for w := 1; w < len(stamps); w++ {
				if stamps[w] < bestT {
					best, bestT = w, stamps[w]
				}
			}
			return best
		}
		best, bestT := -1, ^uint64(0)
		for m := allowed; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			if t := c.meta[lru+w]; best < 0 || t < bestT {
				best, bestT = w, t
			}
		}
		return best
	}
	// PLRU: first allowed way without its MRU bit; if every allowed
	// way is MRU-marked, the lowest allowed way.
	if cold := allowed &^ c.plruMRU[set]; cold != 0 {
		return bits.TrailingZeros64(cold)
	}
	return bits.TrailingZeros64(allowed)
}

// hit handles slot-addressed (partial-write) hits; whole-block hits
// are inlined in Access. The flags stripe is authoritative.
func (c *Cache) hit(set, way int, write bool, opt Options) Result {
	if opt.Slot >= SlotsPerLine {
		panic(fmt.Sprintf("cache: slot %d out of range", opt.Slot))
	}
	fi := set*3*c.ways + 2*c.ways + way
	f := c.meta[fi]
	c.stats.Hits++
	res := Result{Hit: true, SlotValid: true}
	slotBit := uint64(1) << (8 + uint(opt.Slot))
	if f&slotBit == 0 {
		if !write {
			// A read of an unfilled slot must fetch it from memory;
			// a write supplies the data itself (the partial-write
			// benefit), so only reads count as partial misses.
			res.SlotValid = false
			c.stats.PartialMiss++
		}
		f |= slotBit
	}
	if write {
		f |= flagDirty
	}
	c.meta[fi] = f
	if c.inline != InlineNone {
		c.touch(set, way)
	} else {
		line := &c.setLines(set)[way]
		line.Dirty = f&flagDirty != 0
		line.ValidMask = uint8(f >> 8)
		c.policy.OnHit(set, way, line, write)
	}
	return res
}

// Invalidate removes addr if present, returning the dropped line.
func (c *Cache) Invalidate(addr uint64) (Line, bool) {
	addr = align(addr)
	set := c.SetOf(addr)
	mbase := set * 3 * c.ways
	for w := 0; w < c.ways; w++ {
		if c.meta[mbase+w] == addr|1 {
			line := c.lineAt(set, w)
			if c.inline == InlineNone {
				// LRU/PLRU's OnEvict is the embedded no-op, and the
				// fast path never reads lines (Probe refreshes before
				// use), so only the generic path clears its entry.
				c.policy.OnEvict(set, w, &c.setLines(set)[w])
				c.setLines(set)[w] = Line{}
			}
			c.meta[mbase+w] = 0
			c.meta[mbase+2*c.ways+w] = 0
			c.valid[set] &^= 1 << uint(w)
			return line, true
		}
	}
	return Line{}, false
}

// Flush invalidates every line, returning the dirty ones in set/way
// order (for end-of-simulation writeback accounting).
func (c *Cache) Flush() []Line {
	var dirty []Line
	for set := 0; set < c.sets; set++ {
		mbase := set * 3 * c.ways
		for w := 0; w < c.ways; w++ {
			if c.meta[mbase+w] != 0 {
				line := c.lineAt(set, w)
				if line.Dirty {
					dirty = append(dirty, line)
				}
				if c.inline == InlineNone {
					ls := c.setLines(set)
					c.policy.OnEvict(set, w, &ls[w])
					ls[w] = Line{}
				}
				c.meta[mbase+w] = 0
				c.meta[mbase+2*c.ways+w] = 0
			}
		}
		c.valid[set] = 0
	}
	return dirty
}

// Occupancy counts valid lines, optionally filtered by class.
func (c *Cache) Occupancy(class int) int {
	n := 0
	for set := 0; set < c.sets; set++ {
		mbase := set * 3 * c.ways
		for w := 0; w < c.ways; w++ {
			if c.meta[mbase+w] == 0 {
				continue
			}
			if class < 0 || int(uint8(c.meta[mbase+2*c.ways+w]>>16)) == class {
				n++
			}
		}
	}
	return n
}

func align(addr uint64) uint64 { return addr &^ (BlockSize - 1) }
