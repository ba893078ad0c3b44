package metacache

import (
	"fmt"
	"math/bits"

	"github.com/maps-sim/mapsim/internal/cache"
)

// Line word layout. The metadata cache's own sets store each line as
// one word: the block address in place (bits 6-47, free below because
// blocks are cache.BlockSize aligned), the valid and dirty bits, the
// class byte (kind<<4 | level) and the 8 B slot mask. An empty way is
// the zero word, and a valid line's slot mask is never zero.
const (
	lineValid  = 1 << 0
	lineDirty  = 1 << 1
	classShift = 48
	maskShift  = 56
	// maxAddr bounds the addresses a line word can hold.
	maxAddr = 1 << classShift
	// addrBits selects a line's block address; tagBits what a hit
	// compares: the address and the valid bit.
	addrBits = maxAddr - cache.BlockSize
	tagBits  = addrBits | lineValid
)

// maxSetWays is the widest set the packed sets serve: the header word
// holds a 16-bit valid mask and 16 PLRU MRU bits, and an LRU recency
// order of 4-bit way numbers. Wider caches use cache.Cache.
const maxSetWays = 16

// sets is the metadata cache's set-associative array for the built-in
// replacement policies, policy.PLRU and policy.LRU, kept the way
// internal/hierarchy keeps its levels: each set is one run of words,
// its replacement header first and then its ways line words. Ways are
// positional, so partition masks apply to them directly.
//
// Header word 0 holds the valid mask (bits 0-15) and the PLRU MRU bits
// (bits 16-31). LRU keeps the set's recency order as ways 4-bit way
// numbers, most recently used first: in bits 32-63 of word 0 when it
// fits in 8 ways, in a second header word otherwise. A hit scans the
// ways line words; a miss takes the lowest allowed free way or picks
// its victim from the header. Behaviour is bit-identical to
// cache.Cache running the same policy, which the twin tests pin.
type sets struct {
	words   []uint64
	stride  int // header words + ways
	hdr     int // header words per set: 1, or 2 for LRU beyond 8 ways
	ways    int
	setMask uint64
	full    uint64 // all-ways mask, (1<<ways)-1
	lru     bool
	// ordWord and ordShift locate the LRU recency order in the header;
	// ordKeep is what its word holds besides the order.
	ordWord  int
	ordShift uint
	ordKeep  uint64
	// evictions and dirtyEvicts count fills that displaced a line, and
	// those of them that displaced a dirty one. Hits, misses and
	// partial misses are MetaCache.counts' (stats).
	evictions, dirtyEvicts uint64
}

// newSets builds count packed sets for a geometry cache.Geometry has
// accepted, running LRU when lru is set and PLRU otherwise. ways must
// not exceed maxSetWays.
func newSets(count, ways int, lru bool) sets {
	s := sets{
		ways:     ways,
		hdr:      1,
		setMask:  uint64(count - 1),
		full:     1<<uint(ways) - 1,
		lru:      lru,
		ordShift: 32,
		ordKeep:  1<<32 - 1,
	}
	if lru && ways > 8 {
		s.hdr, s.ordWord, s.ordShift, s.ordKeep = 2, 1, 0, 0
	}
	s.stride = s.hdr + ways
	s.words = make([]uint64, count*s.stride)
	if lru {
		// Any permutation will do as the initial order: the victim is
		// only chosen among valid ways, each touched when filled.
		var order uint64
		for p := 0; p < ways; p++ {
			order |= uint64(p) << (4 * uint(p))
		}
		for b := 0; b < len(s.words); b += s.stride {
			s.words[b+s.ordWord] = order << s.ordShift
		}
	}
	return s
}

// access looks the block-aligned addr up, filling it on a miss, as
// cache.Cache.Access does with Options{Class: class, Slot: slot,
// Partial: slot >= 0, Allowed: allowed}. slot >= 0 addresses one 8 B
// slot for partial-write bookkeeping. It reports the tag hit, whether
// the slot held data, and any dirty line the fill displaced: its block
// and its class | slot mask<<8, zero when none.
func (s *sets) access(addr uint64, write bool, class uint8, slot int, allowed uint64) (hit, slotValid bool, evAddr, evFlags uint64) {
	base := int(addr/cache.BlockSize&s.setMask) * s.stride
	set := s.words[base : base+s.stride : base+s.stride]
	lines := set[s.hdr:]
	key := addr | lineValid
	for w, l := range lines {
		if l&tagBits != key {
			continue
		}
		slotValid = true
		if slot >= 0 {
			if bit := slotBit(slot); l&bit == 0 {
				// A read of an unfilled slot must fetch it; a write
				// supplies the data itself (the partial-write benefit).
				if !write {
					slotValid = false
				}
				l |= bit
			}
		}
		if write {
			l |= lineDirty
		}
		lines[w] = l
		if s.lru {
			s.touchLRU(set, w)
		} else {
			set[0] = touchPLRU(set[0], w, s.full)
		}
		return true, slotValid, 0, 0
	}

	if addr >= maxAddr {
		panic(fmt.Sprintf("metacache: address %#x beyond the %#x the line words hold", addr, uint64(maxAddr)))
	}
	if allowed == 0 {
		allowed = s.full
	} else if allowed &= s.full; allowed == 0 {
		panic("metacache: empty allowed-way mask")
	}
	var way int
	if free := allowed &^ set[0]; free != 0 {
		way = bits.TrailingZeros64(free)
		set[0] |= 1 << uint(way)
	} else {
		way = s.victim(set, allowed)
		s.evictions++
		if ev := lines[way]; ev&lineDirty != 0 {
			s.dirtyEvicts++
			evAddr, evFlags = ev&addrBits, ev>>classShift
		}
	}
	line := key | uint64(class)<<classShift | uint64(cache.FullMask)<<maskShift
	if write {
		line |= lineDirty
		if slot >= 0 {
			line = key | lineDirty | uint64(class)<<classShift | slotBit(slot)
		}
	}
	lines[way] = line
	if s.lru {
		s.touchLRU(set, way)
	} else {
		set[0] = touchPLRU(set[0], way, s.full)
	}
	return false, false, evAddr, evFlags
}

// slotBit is slot's bit in a line word.
func slotBit(slot int) uint64 {
	if slot >= cache.SlotsPerLine {
		panic(fmt.Sprintf("metacache: slot %d out of range", slot))
	}
	return 1 << (maskShift + uint(slot))
}

// touchPLRU returns header word h with way's MRU bit set; when every
// way's bit would be set, only way's is kept.
func touchPLRU(h uint64, way int, full uint64) uint64 {
	m := h>>16&full | 1<<uint(way)
	if m == full {
		m = 1 << uint(way)
	}
	return h&^(0xFFFF<<16) | m<<16
}

// touchLRU moves way to the front of the set's recency order. Its
// position is the lowest nibble equal to way; the haszero trick finds
// it (any false positive lies above the true one, and the unused
// nibbles above the ways positions lie above it too).
func (s *sets) touchLRU(set []uint64, way int) {
	order := set[s.ordWord] >> s.ordShift
	x := order ^ uint64(way)*0x1111111111111111
	p := uint(bits.TrailingZeros64((x-0x1111111111111111)&^x&0x8888888888888888)) / 4
	if p == 0 {
		return
	}
	below := uint64(1)<<(4*p) - 1
	above := order &^ (uint64(1)<<(4*(p+1)) - 1)
	order = above | (order&below)<<4 | uint64(way)
	set[s.ordWord] = set[s.ordWord]&s.ordKeep | order<<s.ordShift
}

// victim picks the way to evict among allowed, every one of which
// holds a valid line, as policy.LRU and policy.PLRU's Victim do.
func (s *sets) victim(set []uint64, allowed uint64) int {
	if !s.lru {
		// PLRU: the first allowed way without its MRU bit; if every
		// allowed way is MRU-marked, the lowest allowed way.
		if cold := allowed &^ (set[0] >> 16); cold != 0 {
			return bits.TrailingZeros64(cold)
		}
		return bits.TrailingZeros64(allowed)
	}
	// LRU: the allowed way latest in the recency order.
	order := set[s.ordWord] >> s.ordShift
	for p := s.ways - 1; ; p-- {
		if w := int(order >> (4 * uint(p)) & 0xF); allowed>>uint(w)&1 != 0 {
			return w
		}
	}
}

// stats returns the sets' counters, given the lookup outcomes k of
// every access: hits, misses and partial misses. Accesses and Inserts
// are derived, as every access hits or misses and every miss fills.
func (s *sets) stats(k KindStats) cache.Stats {
	return cache.Stats{
		Accesses:    k.Hits + k.Misses,
		Hits:        k.Hits,
		Misses:      k.Misses,
		PartialMiss: k.PartialMiss,
		Inserts:     k.Misses,
		Evictions:   s.evictions,
		DirtyEvicts: s.dirtyEvicts,
	}
}

// occupancy counts valid lines, only those of class when class >= 0.
func (s *sets) occupancy(class int) int {
	n := 0
	for b := 0; b < len(s.words); b += s.stride {
		for _, l := range s.words[b+s.hdr : b+s.stride] {
			if l != 0 && (class < 0 || int(uint8(l>>classShift)) == class) {
				n++
			}
		}
	}
	return n
}

// flush empties every set and appends its dirty lines to out in
// set/way order, cache.Cache.Flush's order. Replacement state persists,
// as the policies' does across cache.Cache.Flush.
func (s *sets) flush(out []Evicted) []Evicted {
	for b := 0; b < len(s.words); b += s.stride {
		for w, l := range s.words[b+s.hdr : b+s.stride] {
			if l&lineDirty != 0 {
				out = append(out, evicted(l&addrBits, l>>classShift))
			}
			s.words[b+s.hdr+w] = 0
		}
		s.words[b] &^= s.full
	}
	return out
}
