package spec

import (
	"fmt"
	"math"

	"github.com/maps-sim/mapsim/internal/workload"
)

// The generator composes one synthetic sub-generator per client and
// merges their streams on a shared instruction-time axis: each client
// keeps a "next arrival" clock advanced by draws from its arrival
// process, and every Next emits the earliest client's access (ties
// break on declaration order), stamping the instruction gap since the
// previous emission. Everything is integer clocks plus a per-client
// SplitMix64 stream, so the merged sequence is a pure function of
// (spec, seed): bit-identical across runs and machines.

// srng is a SplitMix64 stream, the same generator family the workload
// package uses, duplicated here because that one is unexported.
type srng struct{ s uint64 }

func (r *srng) seed(s uint64) { r.s = s }

func (r *srng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// f64 returns a uniform float in (0, 1]: never 0, so log(u) is finite.
func (r *srng) f64() float64 {
	return (float64(r.next()>>11) + 1) / (1 << 53)
}

// hashLabel is FNV-1a, mixing a client's identity into its seed so
// every client draws an independent stream from one run seed.
func hashLabel(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// arrival process kinds, resolved from Arrival.Process at build time.
const (
	procPoisson = iota
	procGamma
	procFixed
)

// arrival draws a client's integer inter-arrival gaps.
type arrival struct {
	proc    int
	mean    float64 // mean inter-arrival gap in instructions
	k       float64 // gamma shape
	theta   float64 // gamma scale
	seedMix uint64
	rng     srng
}

func newArrival(a Arrival, mean float64, seedMix uint64) arrival {
	ar := arrival{mean: mean, seedMix: seedMix}
	switch a.Process {
	case ProcessGamma:
		ar.proc = procGamma
		// CV fixes the shape: k = 1/cv², θ = mean·cv².
		ar.k = 1 / (a.CV * a.CV)
		ar.theta = mean * a.CV * a.CV
	case ProcessFixed:
		ar.proc = procFixed
	default:
		ar.proc = procPoisson
	}
	return ar
}

func (ar *arrival) reset(seed int64) { ar.rng.seed(uint64(seed) ^ ar.seedMix) }

// draw samples the next inter-arrival gap, clamped to at least one
// instruction so client clocks always advance.
func (ar *arrival) draw() uint64 {
	var g float64
	switch ar.proc {
	case procFixed:
		g = ar.mean
	case procGamma:
		g = ar.gamma()
	default:
		g = -ar.mean * math.Log(ar.rng.f64())
	}
	if g < 1 {
		return 1
	}
	if g > 1e12 {
		return 1 << 40
	}
	return uint64(g + 0.5)
}

// gamma samples Gamma(k, θ) via Marsaglia–Tsang squeeze, boosting
// k < 1 through the Gamma(k+1) identity.
func (ar *arrival) gamma() float64 {
	k := ar.k
	boost := 1.0
	if k < 1 {
		boost = math.Pow(ar.rng.f64(), 1/k)
		k++
	}
	d := k - 1.0/3.0
	c := 1 / (3 * math.Sqrt(d))
	for {
		x := ar.normal()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := ar.rng.f64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * ar.theta * boost
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * ar.theta * boost
		}
	}
}

// normal samples a standard normal via Marsaglia's polar method.
func (ar *arrival) normal() float64 {
	for {
		u := 2*ar.rng.f64() - 1
		v := 2*ar.rng.f64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// clientState is one composed client at runtime.
type clientState struct {
	gen    workload.Generator
	offset uint64 // base of the client's address region
	arr    arrival
	next   uint64 // instruction time of the client's next access
}

// multiClient is the composed generator.
type multiClient struct {
	name      string
	footprint uint64
	clients   []clientState
	last      uint64 // instruction time of the previous emission
}

// Generator builds the spec's composed workload generator. The result
// is deterministic for a given seed (it arrives pre-Reset(1), like
// the built-ins) and spans the concatenation of the clients' disjoint
// address regions.
func (s *Spec) Generator() (workload.Generator, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	c := s.Canonicalize()
	g := &multiClient{name: c.Name}
	var off uint64
	for _, cl := range c.Clients {
		label := c.Name + "/" + cl.Name
		// MeanGap 1 keeps the sub-generator's own gap machinery out of
		// the stream: spacing belongs to the arrival process.
		sub, err := workload.NewSynthetic(workload.SyntheticConfig{
			Name:           label,
			FootprintBytes: uint64(cl.Footprint),
			MeanGap:        1,
			WriteFraction:  cl.WriteFraction,
			HotBytes:       uint64(cl.HotBytes),
			HotFraction:    cl.HotFraction,
			SequentialRun:  cl.SequentialRun,
			Stream:         cl.Stream,
		})
		if err != nil {
			return nil, fmt.Errorf("spec: client %q: %w", cl.Name, err)
		}
		g.clients = append(g.clients, clientState{
			gen:    sub,
			offset: off,
			arr:    newArrival(cl.Arrival, float64(c.MeanGap)/cl.RateFraction, hashLabel(label)),
		})
		off += uint64(cl.Footprint)
	}
	g.footprint = off
	g.Reset(1)
	return g, nil
}

// Name implements workload.Generator.
func (g *multiClient) Name() string { return g.name }

// Footprint implements workload.Generator.
func (g *multiClient) Footprint() uint64 { return g.footprint }

// Reset implements workload.Generator: every client's sub-generator,
// arrival stream, and clock re-derives from the seed alone, so equal
// seeds replay byte-identical merged streams.
func (g *multiClient) Reset(seed int64) {
	g.last = 0
	for i := range g.clients {
		c := &g.clients[i]
		c.gen.Reset(seed)
		c.arr.reset(seed)
		c.next = c.arr.draw()
	}
}

// Next implements workload.Generator: emit the earliest-clocked
// client's access, offset into its region, with the instruction gap
// since the previous emission.
func (g *multiClient) Next(a *workload.Access) {
	cs := g.clients
	best := 0
	bt := cs[0].next
	for i := 1; i < len(cs); i++ {
		if cs[i].next < bt {
			best, bt = i, cs[i].next
		}
	}
	c := &cs[best]
	c.gen.Next(a)
	a.Addr += c.offset
	gap := bt - g.last
	if gap < 1 {
		gap = 1 // two clients can share an arrival tick
	}
	if gap > math.MaxUint32 {
		gap = math.MaxUint32
	}
	a.Gap = uint32(gap)
	g.last = bt
	c.next = bt + c.arr.draw()
}
