// Package cache provides the generic set-associative cache model:
// pluggable replacement policies, write-back dirty tracking, per-8B-slot
// valid bits (for the partial-write optimization studied in MAPS §IV-E),
// victim-candidate masks (for way partitioning), and caller-defined
// block classes (metadata types). It runs every policy through the
// Policy interface. The processor cache hierarchy (internal/hierarchy)
// and the metadata cache (internal/metacache) keep their own packed
// sets for their built-in policies and use a Cache as the reference
// model their twin tests hold them to; the metadata cache also runs
// every other policy on one. Geometry is the shape rule all of them
// share, and Stats the counters they report.
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
	setMask uint64 // sets-1; set count is a power of two
	policy  Policy
	lines   []Line
	// valid holds one bit per way per set: which frames hold a block.
	// It turns the miss path's free-way scan and victim-candidate mask
	// into two bitwise ops.
	valid []uint64
	// fullWays is the all-ways candidate mask, (1<<ways)-1.
	fullWays uint64
	stats    Stats
	// observer is non-nil only for policies that implement
	// AccessObserver; everyone else skips the per-access call.
	observer AccessObserver
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
		sets:     sets,
		ways:     ways,
		setMask:  uint64(sets - 1),
		policy:   policy,
		lines:    make([]Line, sets*ways),
		valid:    make([]uint64, sets),
		fullWays: ^uint64(0),
	}
	if ways < MaxWays {
		c.fullWays = 1<<uint(ways) - 1
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

// setOf returns the set index for addr. The set count is a power of
// two, so this is a shift and mask — no division on the hot path.
func (c *Cache) setOf(addr uint64) int {
	return int(addr / BlockSize & c.setMask)
}

// setLines returns the ways of one set.
func (c *Cache) setLines(set int) []Line {
	return c.lines[set*c.ways : (set+1)*c.ways]
}

// find returns the way of set holding the block-aligned addr, or -1.
func (c *Cache) find(set int, addr uint64) int {
	for w, l := range c.setLines(set) {
		if l.Valid && l.Addr == addr {
			return w
		}
	}
	return -1
}

// Probe reports whether addr is present, without touching policy
// state or statistics. It returns the line for inspection (nil on
// absence).
func (c *Cache) Probe(addr uint64) *Line {
	addr = align(addr)
	set := c.setOf(addr)
	if w := c.find(set, addr); w >= 0 {
		return &c.setLines(set)[w]
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
	if opt.Slot >= SlotsPerLine {
		panic(fmt.Sprintf("cache: slot %d out of range", opt.Slot))
	}
	set := c.setOf(addr)
	ls := c.setLines(set)
	if w := c.find(set, addr); w >= 0 {
		line := &ls[w]
		c.stats.Hits++
		res := Result{Hit: true, SlotValid: true}
		if opt.Slot >= 0 {
			if bit := uint8(1) << uint(opt.Slot); line.ValidMask&bit == 0 {
				if !write {
					// A read of an unfilled slot must fetch it from
					// memory; a write supplies the data itself (the
					// partial-write benefit), so only reads count as
					// partial misses.
					res.SlotValid = false
					c.stats.PartialMiss++
				}
				line.ValidMask |= bit
			}
		}
		if write {
			line.Dirty = true
		}
		c.policy.OnHit(set, w, line, write)
		return res
	}

	c.stats.Misses++
	if opt.NoAlloc {
		return Result{}
	}
	allowed := c.fullWays
	if opt.Allowed != 0 {
		allowed &= opt.Allowed
	}
	if allowed == 0 {
		panic("cache: empty allowed-way mask")
	}
	mask := FullMask
	if opt.Partial && write && opt.Slot >= 0 {
		mask = 1 << uint(opt.Slot)
	}

	res := Result{Inserted: true}
	var way int
	if free := allowed &^ c.valid[set]; free != 0 {
		// The lowest allowed invalid frame.
		way = bits.TrailingZeros64(free)
	} else {
		validAllowed := allowed & c.valid[set]
		way = c.policy.Victim(set, ls, validAllowed)
		if way < 0 || way >= c.ways || validAllowed&(1<<uint(way)) == 0 {
			panic(fmt.Sprintf("cache: policy %s chose disallowed victim way %d (mask %#x)", c.policy.Name(), way, validAllowed))
		}
		res.Evicted = ls[way]
		c.policy.OnEvict(set, way, &ls[way])
		c.stats.Evictions++
		if res.Evicted.Dirty {
			c.stats.DirtyEvicts++
		}
	}
	ls[way] = Line{Addr: addr, Class: opt.Class, Valid: true, Dirty: write, ValidMask: mask}
	c.valid[set] |= 1 << uint(way)
	c.stats.Inserts++
	c.policy.OnInsert(set, way, &ls[way])
	return res
}

// Invalidate removes addr if present, returning the dropped line.
func (c *Cache) Invalidate(addr uint64) (Line, bool) {
	addr = align(addr)
	set := c.setOf(addr)
	w := c.find(set, addr)
	if w < 0 {
		return Line{}, false
	}
	ls := c.setLines(set)
	line := ls[w]
	c.policy.OnEvict(set, w, &ls[w])
	ls[w] = Line{}
	c.valid[set] &^= 1 << uint(w)
	return line, true
}

// Flush invalidates every line, returning the dirty ones in set/way
// order (for end-of-simulation writeback accounting).
func (c *Cache) Flush() []Line {
	var dirty []Line
	for set := 0; set < c.sets; set++ {
		ls := c.setLines(set)
		for w := range ls {
			if !ls[w].Valid {
				continue
			}
			if ls[w].Dirty {
				dirty = append(dirty, ls[w])
			}
			c.policy.OnEvict(set, w, &ls[w])
			ls[w] = Line{}
		}
		c.valid[set] = 0
	}
	return dirty
}

// Occupancy counts valid lines, optionally filtered by class.
func (c *Cache) Occupancy(class int) int {
	n := 0
	for _, l := range c.lines {
		if l.Valid && (class < 0 || int(l.Class) == class) {
			n++
		}
	}
	return n
}

func align(addr uint64) uint64 { return addr &^ (BlockSize - 1) }
