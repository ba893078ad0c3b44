// Package policy provides the online replacement policies studied or
// referenced by MAPS: true LRU, bit pseudo-LRU, FIFO, random, and the
// RRIP family. All of them honor victim-candidate masks so they
// compose with way partitioning.
package policy

import (
	"math/bits"

	"github.com/maps-sim/mapsim/internal/cache"
)

// Base provides no-op hooks for policies that don't need them.
// It deliberately has no OnAccess: per-access observation is the
// optional cache.AccessObserver interface, and only policies that
// implement it themselves (MIN and friends) pay for the call.
type Base struct{}

// OnHit implements cache.Policy.
func (Base) OnHit(set, way int, line *cache.Line, write bool) {}

// OnInsert implements cache.Policy.
func (Base) OnInsert(set, way int, line *cache.Line) {}

// OnEvict implements cache.Policy.
func (Base) OnEvict(set, way int, line *cache.Line) {}

// LRU is exact least-recently-used replacement, tracked with a global
// access clock per frame.
type LRU struct {
	Base
	ways  int
	clock uint64
	last  []uint64
}

// NewLRU returns a true-LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Name implements cache.Policy.
func (*LRU) Name() string { return "lru" }

// Reset implements cache.Policy.
func (p *LRU) Reset(sets, ways int) {
	p.ways = ways
	p.clock = 0
	p.last = make([]uint64, sets*ways)
}

func (p *LRU) touch(set, way int) {
	p.clock++
	p.last[set*p.ways+way] = p.clock
}

// OnHit implements cache.Policy.
func (p *LRU) OnHit(set, way int, line *cache.Line, write bool) { p.touch(set, way) }

// OnInsert implements cache.Policy.
func (p *LRU) OnInsert(set, way int, line *cache.Line) { p.touch(set, way) }

// Victim implements cache.Policy: the allowed way with the oldest
// last use.
func (p *LRU) Victim(set int, lines []cache.Line, allowed uint64) int {
	best, bestT := -1, ^uint64(0)
	for w := 0; w < p.ways; w++ {
		if allowed&(1<<uint(w)) == 0 {
			continue
		}
		if t := p.last[set*p.ways+w]; best < 0 || t < bestT {
			best, bestT = w, t
		}
	}
	return best
}

// PLRU is bit pseudo-LRU (MRU-bit approximation): each access sets
// the frame's MRU bit; when a set's bits would all be set, the others
// clear. The victim is the first allowed frame without its bit set.
// This is the cheap hardware policy MAPS refers to as pseudo-LRU.
type PLRU struct {
	Base
	ways int
	mru  []uint64 // one bitmask per set
}

// NewPLRU returns a bit pseudo-LRU policy.
func NewPLRU() *PLRU { return &PLRU{} }

// Name implements cache.Policy.
func (*PLRU) Name() string { return "plru" }

// Reset implements cache.Policy.
func (p *PLRU) Reset(sets, ways int) {
	p.ways = ways
	p.mru = make([]uint64, sets)
}

func (p *PLRU) touch(set, way int) {
	full := uint64(1)<<uint(p.ways) - 1
	p.mru[set] |= 1 << uint(way)
	if p.mru[set] == full {
		p.mru[set] = 1 << uint(way)
	}
}

// OnHit implements cache.Policy.
func (p *PLRU) OnHit(set, way int, line *cache.Line, write bool) { p.touch(set, way) }

// OnInsert implements cache.Policy.
func (p *PLRU) OnInsert(set, way int, line *cache.Line) { p.touch(set, way) }

// Victim implements cache.Policy: first allowed way without its MRU
// bit; if every allowed way is MRU-marked, the lowest allowed way.
func (p *PLRU) Victim(set int, lines []cache.Line, allowed uint64) int {
	cold := allowed &^ p.mru[set]
	if cold != 0 {
		return bits.TrailingZeros64(cold)
	}
	return bits.TrailingZeros64(allowed)
}

// FIFO evicts the oldest-inserted allowed frame.
type FIFO struct {
	Base
	ways  int
	clock uint64
	born  []uint64
}

// NewFIFO returns a FIFO policy.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements cache.Policy.
func (*FIFO) Name() string { return "fifo" }

// Reset implements cache.Policy.
func (p *FIFO) Reset(sets, ways int) {
	p.ways = ways
	p.clock = 0
	p.born = make([]uint64, sets*ways)
}

// OnInsert implements cache.Policy.
func (p *FIFO) OnInsert(set, way int, line *cache.Line) {
	p.clock++
	p.born[set*p.ways+way] = p.clock
}

// Victim implements cache.Policy.
func (p *FIFO) Victim(set int, lines []cache.Line, allowed uint64) int {
	best, bestT := -1, ^uint64(0)
	for w := 0; w < p.ways; w++ {
		if allowed&(1<<uint(w)) == 0 {
			continue
		}
		if t := p.born[set*p.ways+w]; best < 0 || t < bestT {
			best, bestT = w, t
		}
	}
	return best
}

// Random evicts a uniformly random allowed frame, using a
// deterministic xorshift generator so runs reproduce.
type Random struct {
	Base
	state uint64
}

// NewRandom returns a random-replacement policy seeded for
// reproducibility.
func NewRandom(seed uint64) *Random {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Random{state: seed}
}

// Name implements cache.Policy.
func (*Random) Name() string { return "random" }

// Reset implements cache.Policy.
func (p *Random) Reset(sets, ways int) {}

func (p *Random) next() uint64 {
	p.state ^= p.state << 13
	p.state ^= p.state >> 7
	p.state ^= p.state << 17
	return p.state
}

// Victim implements cache.Policy.
func (p *Random) Victim(set int, lines []cache.Line, allowed uint64) int {
	n := bits.OnesCount64(allowed)
	k := int(p.next() % uint64(n))
	for w := 0; ; w++ {
		if allowed&(1<<uint(w)) != 0 {
			if k == 0 {
				return w
			}
			k--
		}
	}
}

// RRIP implements SRRIP/BRRIP re-reference interval prediction
// (Jaleel et al., ISCA 2010) with 2-bit RRPVs.
type RRIP struct {
	Base
	ways    int
	rrpv    []uint8
	brip    bool
	counter uint32
}

const rripMax = 3

// NewSRRIP returns static RRIP: insertions predict a long
// re-reference interval (RRPV max-1).
func NewSRRIP() *RRIP { return &RRIP{} }

// NewBRRIP returns bimodal RRIP: most insertions predict a distant
// interval (RRPV max), occasionally long.
func NewBRRIP() *RRIP { return &RRIP{brip: true} }

// Name implements cache.Policy.
func (p *RRIP) Name() string {
	if p.brip {
		return "brrip"
	}
	return "srrip"
}

// Reset implements cache.Policy.
func (p *RRIP) Reset(sets, ways int) {
	p.ways = ways
	p.rrpv = make([]uint8, sets*ways)
	p.counter = 0
}

// OnHit implements cache.Policy: hits predict near-immediate reuse.
func (p *RRIP) OnHit(set, way int, line *cache.Line, write bool) {
	p.rrpv[set*p.ways+way] = 0
}

// OnInsert implements cache.Policy.
func (p *RRIP) OnInsert(set, way int, line *cache.Line) {
	v := uint8(rripMax - 1)
	if p.brip {
		p.counter++
		if p.counter%32 != 0 { // mostly distant
			v = rripMax
		}
	}
	p.rrpv[set*p.ways+way] = v
}

// Victim implements cache.Policy: the first allowed frame at max
// RRPV, aging allowed frames until one appears.
func (p *RRIP) Victim(set int, lines []cache.Line, allowed uint64) int {
	for {
		for w := 0; w < p.ways; w++ {
			if allowed&(1<<uint(w)) != 0 && p.rrpv[set*p.ways+w] == rripMax {
				return w
			}
		}
		for w := 0; w < p.ways; w++ {
			if allowed&(1<<uint(w)) != 0 && p.rrpv[set*p.ways+w] < rripMax {
				p.rrpv[set*p.ways+w]++
			}
		}
	}
}

// Interface checks.
var (
	_ cache.Policy = (*LRU)(nil)
	_ cache.Policy = (*PLRU)(nil)
	_ cache.Policy = (*FIFO)(nil)
	_ cache.Policy = (*Random)(nil)
	_ cache.Policy = (*RRIP)(nil)
)
