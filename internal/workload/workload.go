// Package workload provides synthetic memory-access generators that
// stand in for the SPEC 2006 / PARSEC / SPLASH-2 benchmarks MAPS
// simulates. Each generator reproduces the access-pattern *shape*
// that drives the paper's analysis for its benchmark: footprint
// relative to the LLC, spatial locality, streaming vs pointer-chasing
// behaviour, and write fraction. DESIGN.md §1 documents the
// substitution.
package workload

import (
	"fmt"
	"math/bits"
	"sort"
)

// Access is one memory reference emitted by a generator.
type Access struct {
	// Addr is a byte address within [0, Footprint).
	Addr uint64
	// Write distinguishes stores from loads.
	Write bool
	// Gap is the number of instructions executed since the previous
	// access, at least 1 (this access's own instruction).
	Gap uint32
}

// Generator produces a deterministic, endless access stream after
// Reset.
type Generator interface {
	// Name is the benchmark name as used in the paper's figures.
	Name() string
	// Footprint is the extent of the data region the stream touches.
	Footprint() uint64
	// Reset rewinds the stream and reseeds its randomness.
	Reset(seed int64)
	// Next fills in the next access.
	Next(a *Access)
}

const block = 64

// word is the access granularity: generators step through memory in
// 8 B words so that spatial locality within a 64 B block shows up as
// cache hits, keeping LLC MPKI in the ranges the paper reports.
const word = 8

// rng is an inlined SplitMix64 generator (Steele et al., "Fast
// Splittable Pseudorandom Number Generators"). The generators draw
// from it on every access, so it must cost a handful of arithmetic
// ops — math/rand paid two interface dispatches per access (Intn for
// the gap, Float64 for the write coin), which dominated Next in
// profiles. The determinism contract is unchanged: Reset(seed)
// rewinds the stream exactly.
//
// Swapping the source changed every generator's stream once; the
// statistical shape (write mix, gap means, locality) is identical.
// docs/PERFORMANCE.md documents this one-time golden-number bump.
type rng struct{ s uint64 }

func (r *rng) seed(v uint64) { r.s = v }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// n returns a value uniform in [0, n). The modulo bias is O(n/2^64),
// immaterial for block counts far below 2^63.
func (r *rng) n(n uint64) uint64 { return r.next() % n }

// intn is n for int-typed ranges.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// umod reduces modulo a fixed divisor with multiply-shift arithmetic
// (Granlund & Montgomery; Hacker's Delight §10). The generators draw
// a bounded value on nearly every access, and a hardware 64-bit
// divide costs more than the rest of the draw combined; the magic
// multiplier computes exactly x % d, so streams (and golden numbers)
// are unchanged.
type umod struct {
	d    uint64
	m    uint64 // magic multiplier for non-power-of-two d
	mask uint64 // d-1 for power-of-two d
	l    uint   // post-shift: ceil(log2 d) - 1
	pow2 bool
}

func newUmod(d uint64) umod {
	if d == 0 {
		panic("workload: zero modulus")
	}
	if d&(d-1) == 0 {
		return umod{d: d, mask: d - 1, pow2: true}
	}
	// ceil(log2 d); d has at least two bits set, so l >= 2 and the
	// (x-t)>>1 fixup below never shifts by a negative amount.
	l := uint(bits.Len64(d - 1))
	m, _ := bits.Div64(uint64(1)<<l-d, 0, d)
	return umod{d: d, m: m + 1, l: l - 1}
}

func (u umod) rem(x uint64) uint64 {
	if u.pow2 {
		return x & u.mask
	}
	t, _ := bits.Mul64(u.m, x)
	q := (t + (x-t)>>1) >> u.l
	return x - q*u.d
}

// cutoff converts a probability in [0, 1] into a threshold such that
// next() < cutoff(p) holds with probability p, so per-access coin
// flips are a single integer compare instead of a float multiply.
func cutoff(frac float64) uint64 {
	switch {
	case frac <= 0:
		return 0
	case frac >= 1:
		return ^uint64(0)
	}
	return uint64(frac * float64(1<<63) * 2)
}

// base carries the shared knobs: instruction gaps and write ratio.
type base struct {
	name      string
	footprint uint64
	meanGap   int
	writeFrac float64
	rng       rng
	// writeCut and gapMod are precomputed by reset so the per-access
	// draws are pure integer math with no hardware divide.
	writeCut uint64
	gapMod   umod // modulus 2*meanGap-1; zero d means every gap is 1
}

func (b *base) Name() string      { return b.name }
func (b *base) Footprint() uint64 { return b.footprint }

func (b *base) reset(seed int64) {
	b.rng.seed(uint64(seed) ^ hashName(b.name))
	b.writeCut = cutoff(b.writeFrac)
	b.gapMod = umod{}
	if b.meanGap > 1 {
		b.gapMod = newUmod(uint64(2*b.meanGap - 1))
	}
}

func hashName(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// gap draws an instruction gap uniform in [1, 2*meanGap-1], mean
// meanGap.
func (b *base) gap() uint32 {
	if b.gapMod.d == 0 {
		return 1
	}
	return uint32(1 + b.gapMod.rem(b.rng.next()))
}

func (b *base) write() bool { return b.rng.next() < b.writeCut }

// stream sweeps its footprint sequentially, forever — the paper's
// description of libquantum: "repeatedly streams through a 4MB
// array".
type stream struct {
	base
	pos uint64
	// hotBytes, when nonzero, interleaves accesses to a small hot
	// region (streamcluster's cluster centers).
	hotBytes uint64
	hotEvery int
	until    int // accesses left before the next hot reference
	hotMod   umod
}

// newStream validates the hot-region knobs at construction: a hot
// region without a sampling interval would divide by zero in Next.
func newStream(b base, hotBytes uint64, hotEvery int) *stream {
	if hotBytes > 0 && hotEvery <= 0 {
		panic(fmt.Sprintf("workload: %s: hot region (%d B) requires hotEvery >= 1, got %d",
			b.name, hotBytes, hotEvery))
	}
	return &stream{base: b, hotBytes: hotBytes, hotEvery: hotEvery}
}

func (g *stream) Reset(seed int64) {
	g.reset(seed)
	g.pos = 0
	g.until = g.hotEvery
	if g.hotBytes > 0 {
		g.hotMod = newUmod(g.hotBytes / block)
	}
}

func (g *stream) Next(a *Access) {
	if g.hotBytes > 0 {
		g.until--
		if g.until == 0 {
			g.until = g.hotEvery
			a.Addr = g.hotMod.rem(g.rng.next()) * block
			a.Write = g.write()
			a.Gap = g.gap()
			return
		}
	}
	a.Addr = g.pos
	g.pos += word
	if g.pos >= g.footprint {
		g.pos = 0
	}
	a.Write = g.write()
	a.Gap = g.gap()
}

// chase issues low-spatial-locality references: uniformly random
// blocks over the footprint, optionally biased toward a hot subset —
// canneal's random element exchanges and mcf's network arcs.
type chase struct {
	base
	hotFrac   float64 // fraction of accesses that go to the hot region
	hotCut    uint64  // precomputed cutoff(hotFrac)
	hotBytes  uint64
	runLen    int // short sequential runs model element records
	remaining int
	cur       uint64
	hotMod    umod
	footMod   umod
	runMod    umod
}

func (g *chase) Reset(seed int64) {
	g.reset(seed)
	g.hotCut = cutoff(g.hotFrac)
	g.remaining = 0
	if g.hotBytes > 0 {
		g.hotMod = newUmod(g.hotBytes / block)
	}
	g.footMod = newUmod(g.footprint / block)
	if g.runLen > 1 {
		g.runMod = newUmod(uint64(g.runLen))
	}
}

func (g *chase) Next(a *Access) {
	if g.remaining <= 0 {
		if g.hotBytes > 0 && g.rng.next() < g.hotCut {
			g.cur = g.hotMod.rem(g.rng.next()) * block
		} else {
			g.cur = g.footMod.rem(g.rng.next()) * block
		}
		g.remaining = 1
		if g.runLen > 1 {
			g.remaining += int(g.runMod.rem(g.rng.next()))
		}
	}
	a.Addr = g.cur
	g.cur += word
	if g.cur >= g.footprint {
		g.cur = 0
	}
	g.remaining--
	a.Write = g.write()
	a.Gap = g.gap()
}

// strided models butterfly-exchange kernels (fft) and strided lattice
// sweeps (milc): each pass walks the array word by word touching
// element pairs (i, i+stride), and the stride doubles between passes.
// Both streams are sequential at word granularity, so spatial
// locality within blocks is realistic while the pair distance creates
// the stage-dependent reuse the paper discusses.
type strided struct {
	base
	minStride uint64
	maxStride uint64
	stride    uint64
	pos       uint64
	phase     int // 0: a[i], 1: a[i+stride]
}

func (g *strided) Reset(seed int64) {
	g.reset(seed)
	g.stride = g.minStride
	g.pos = 0
	g.phase = 0
}

func (g *strided) Next(a *Access) {
	if g.phase == 0 {
		a.Addr = g.pos
		g.phase = 1
	} else {
		a.Addr = g.pos + g.stride
		g.phase = 0
		g.pos += word
		if g.pos+g.stride >= g.footprint {
			g.pos = 0
			g.stride *= 2
			if g.stride > g.maxStride {
				g.stride = g.minStride
			}
		}
	}
	a.Write = g.write()
	a.Gap = g.gap()
}

// stencil sweeps a 3-D grid accessing each point and its neighbours
// in the two outer dimensions — leslie3d's and cactusADM's kernels.
// The inner dimension is sequential (good spatial locality); the
// neighbour planes force reuse at plane distance.
type stencil struct {
	base
	nx, ny, nz uint64 // points per dimension, 8 B per point
	i          uint64 // linear sweep position in points
	phase      int    // which neighbour of the current point
	ptsMod     umod   // modulus nx*ny*nz
}

func (g *stencil) Reset(seed int64) {
	g.reset(seed)
	g.i = 0
	g.phase = 0
	g.ptsMod = newUmod(g.nx * g.ny * g.nz)
}

func (g *stencil) Next(a *Access) {
	const ptBytes = 8
	center := g.ptsMod.rem(g.i)
	var off int64
	switch g.phase {
	case 0:
		off = 0
	case 1:
		off = int64(g.nx) // +y neighbour
	case 2:
		off = int64(g.nx * g.ny) // +z neighbour
	}
	idx := g.ptsMod.rem(center + uint64(off))
	a.Addr = idx * ptBytes
	g.phase++
	if g.phase == 3 {
		g.phase = 0
		g.i++
	}
	a.Write = g.phase == 0 && g.write() // write the centre point last
	a.Gap = g.gap()
}

// treewalk descends a pointer-linked tree from the root each
// iteration, touching the node at every level — barnes' octree force
// walks. Upper levels are reused constantly, leaves rarely.
type treewalk struct {
	base
	levels    int
	nodeBytes uint64
	levelMod  umod
	footMod   umod
}

func (g *treewalk) Reset(seed int64) {
	g.reset(seed)
	g.levelMod = newUmod(uint64(g.levels))
	g.footMod = newUmod(g.footprint)
}

func (g *treewalk) Next(a *Access) {
	// Pick a random leaf, then emit one node along its path per call.
	// Encoding: level offsets laid out level by level.
	level := int(g.levelMod.rem(g.rng.next()))
	nodesAt := uint64(1) << uint(2*level) // 4-ary tree
	first := (pow4(level) - 1) / 3        // Σ 4^i below this level
	idx := g.rng.next() & (nodesAt - 1)   // nodesAt is a power of two
	addr := (first + idx) * g.nodeBytes
	a.Addr = g.footMod.rem(addr)
	a.Write = g.write()
	a.Gap = g.gap()
}

func pow4(n int) uint64 { return uint64(1) << uint(2*n) }

// mixed combines a resident hot region with sparse cold references —
// gcc's and perlbench's heaps.
type mixed struct {
	base
	hotBytes uint64
	hotFrac  float64
	hotCut   uint64 // precomputed cutoff(hotFrac)
	seqRun   int
	rem      int
	cur      uint64
	hotMod   umod
	coldMod  umod
	runMod   umod
}

func (g *mixed) Reset(seed int64) {
	g.reset(seed)
	g.hotCut = cutoff(g.hotFrac)
	g.rem = 0
	g.hotMod = newUmod(g.hotBytes / block)
	g.coldMod = newUmod((g.footprint - g.hotBytes) / block)
	g.runMod = newUmod(uint64(g.seqRun))
}

func (g *mixed) Next(a *Access) {
	if g.rem <= 0 {
		if g.rng.next() < g.hotCut {
			g.cur = g.hotMod.rem(g.rng.next()) * block
		} else {
			g.cur = g.hotBytes + g.coldMod.rem(g.rng.next())*block
		}
		g.rem = 1 + int(g.runMod.rem(g.rng.next()))
	}
	a.Addr = g.cur
	g.cur += word
	if g.cur >= g.footprint {
		g.cur = g.hotBytes
	}
	g.rem--
	a.Write = g.write()
	a.Gap = g.gap()
}

// New returns a fresh, reset generator for the named benchmark.
func New(name string) (Generator, error) {
	mk, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, Names())
	}
	g := mk()
	g.Reset(1)
	return g, nil
}

// MustNew is New but panics on error.
func MustNew(name string) Generator {
	g, err := New(name)
	if err != nil {
		panic(err)
	}
	return g
}

// Names lists the available benchmarks in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// MemoryIntensive lists the benchmarks the paper focuses on (LLC
// MPKI > 10 under its configuration).
func MemoryIntensive() []string {
	return []string{"canneal", "libquantum", "fft", "leslie3d", "mcf", "cactusADM", "lbm", "milc"}
}

// Representative lists the six benchmarks shown in Figure 3.
func Representative() []string {
	return []string{"canneal", "libquantum", "fft", "leslie3d", "mcf", "barnes"}
}

var registry = map[string]func() Generator{
	// PARSEC canneal: huge footprint, near-random exchanges, little
	// spatial locality. The paper's archetypal metadata-hostile
	// workload.
	"canneal": func() Generator {
		return &chase{base: base{name: "canneal", footprint: 96 << 20, meanGap: 4, writeFrac: 0.15}, runLen: 8}
	},
	// SPEC libquantum: repeatedly streams a 4 MB array.
	"libquantum": func() Generator {
		return newStream(base{name: "libquantum", footprint: 4 << 20, meanGap: 4, writeFrac: 0.20}, 0, 0)
	},
	// SPLASH-2 fft: butterfly exchanges, strides doubling per stage,
	// 20% writes (the paper's most write-heavy pick).
	"fft": func() Generator {
		return &strided{base: base{name: "fft", footprint: 32 << 20, meanGap: 3, writeFrac: 0.20}, minStride: 4 << 10, maxStride: 1 << 20}
	},
	// SPEC leslie3d: 3-D stencil, 15% writes.
	"leslie3d": func() Generator {
		return &stencil{base: base{name: "leslie3d", footprint: 64 << 20, meanGap: 3, writeFrac: 0.15}, nx: 256, ny: 256, nz: 128}
	},
	// SPEC mcf: network simplex, pointer-heavy with a hot arc set.
	"mcf": func() Generator {
		return &chase{base: base{name: "mcf", footprint: 64 << 20, meanGap: 2, writeFrac: 0.10}, hotFrac: 0.3, hotBytes: 2 << 20, runLen: 8}
	},
	// SPLASH-2 barnes: octree walks, skewed reuse toward the root.
	"barnes": func() Generator {
		return &treewalk{base: base{name: "barnes", footprint: 16 << 20, meanGap: 4, writeFrac: 0.05}, levels: 10, nodeBytes: 128}
	},
	// SPEC cactusADM: large-grid stencil with long reuse distances.
	"cactusADM": func() Generator {
		return &stencil{base: base{name: "cactusADM", footprint: 128 << 20, meanGap: 4, writeFrac: 0.20}, nx: 512, ny: 256, nz: 128}
	},
	// SPEC perlbench: small, cache-resident working set (the paper's
	// low-MPKI example whose CSOPT run takes "only" 32 minutes).
	"perlbench": func() Generator {
		return &mixed{base: base{name: "perlbench", footprint: 8 << 20, meanGap: 5, writeFrac: 0.20}, hotBytes: 1 << 20, hotFrac: 0.95, seqRun: 4}
	},
	// PARSEC streamcluster: streaming points + tiny hot centers.
	"streamcluster": func() Generator {
		return newStream(base{name: "streamcluster", footprint: 48 << 20, meanGap: 3, writeFrac: 0.02}, 256<<10, 5)
	},
	// SPEC lbm: lattice-Boltzmann streaming with heavy writes.
	"lbm": func() Generator {
		return newStream(base{name: "lbm", footprint: 64 << 20, meanGap: 2, writeFrac: 0.45}, 0, 0)
	},
	// SPEC milc: strided lattice QCD sweeps.
	"milc": func() Generator {
		return &strided{base: base{name: "milc", footprint: 96 << 20, meanGap: 3, writeFrac: 0.15}, minStride: 16 << 10, maxStride: 1 << 18}
	},
	// SPEC gcc: moderate hot region plus scattered cold heap.
	"gcc": func() Generator {
		return &mixed{base: base{name: "gcc", footprint: 48 << 20, meanGap: 4, writeFrac: 0.20}, hotBytes: 2 << 20, hotFrac: 0.7, seqRun: 6}
	},
	// SPEC astar: pathfinding over a grid — a warm frontier region
	// plus scattered map lookups.
	"astar": func() Generator {
		return &mixed{base: base{name: "astar", footprint: 24 << 20, meanGap: 3, writeFrac: 0.10}, hotBytes: 512 << 10, hotFrac: 0.6, seqRun: 3}
	},
	// SPEC omnetpp: discrete-event simulation — a hot event heap and
	// pointer-chased message objects.
	"omnetpp": func() Generator {
		return &chase{base: base{name: "omnetpp", footprint: 48 << 20, meanGap: 3, writeFrac: 0.25}, hotBytes: 4 << 20, hotFrac: 0.5, runLen: 4}
	},
	// SPEC bwaves: blast-wave solver — several large arrays streamed
	// with heavy writes.
	"bwaves": func() Generator {
		return newStream(base{name: "bwaves", footprint: 96 << 20, meanGap: 2, writeFrac: 0.30}, 0, 0)
	},
	// SPEC soplex: simplex LP — sparse-matrix row sweeps at varied
	// strides.
	"soplex": func() Generator {
		return &strided{base: base{name: "soplex", footprint: 64 << 20, meanGap: 3, writeFrac: 0.10}, minStride: 1 << 10, maxStride: 64 << 10}
	},
}
