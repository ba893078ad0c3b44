package main

import (
	"fmt"

	"github.com/maps-sim/mapsim/internal/cache"
	"github.com/maps-sim/mapsim/internal/dram"
	"github.com/maps-sim/mapsim/internal/hierarchy"
	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/secmem/engine"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/workload"
)

// chunkSize is how many accesses one replay stage handles before the
// next stage runs: large enough that the two clock reads per stage
// span vanish against the work, small enough that a chunk's accesses
// and events stay in cache between stages.
const chunkSize = 4096

// Span names of the replay stages. Each stage calls exactly one layer,
// so a stage's self time is that layer's host time.
const (
	spanRun       = "sim.run"
	spanWorkload  = "workload.next"
	spanHierarchy = "hierarchy.access"
	spanEngine    = "engine.events"
)

// event is one LLC read miss or writeback for the back end, with the
// cycles the front end accrued since the previous event.
type event struct {
	delta uint64
	addr  uint64
	wb    bool
}

// replay runs one simulation as three stages per chunk — generator,
// hierarchy, back end (engine, or DRAM for insecure runs) — with the
// same cycle accounting as sim.RunContext's sequential loop, so that
// it reproduces the direct run's simulated figures exactly while each
// layer's host time is measured on its own.
type replay struct {
	cfg  sim.Config
	gen  workload.Generator
	hier *hierarchy.Hierarchy
	mem  *dram.Memory
	eng  *engine.Engine
	meta *metacache.MetaCache

	accs    []workload.Access
	evs     []event
	pending uint64 // front-end cycles not yet handed to the back end
	cycles  uint64

	// accesses and events count the whole replay, warmup included:
	// they are the denominators of the per-layer host times.
	accesses, events uint64
}

// newReplay builds the models exactly as sim.RunContext does for a
// sequential run of cfg. A metadata-cache policy or partition
// instance in cfg is used, not copied: give the replay its own.
func newReplay(cfg sim.Config) (*replay, error) {
	var meta metacache.Config
	if cfg.Meta != nil {
		// Canonical rejects stateful instances; set them aside and
		// put them back after the defaults are filled in.
		meta = *cfg.Meta
		plain := meta
		plain.Policy, plain.Partition = nil, nil
		cfg.Meta = &plain
	}
	c, err := cfg.Canonical()
	if err != nil {
		return nil, err
	}
	if c.Meta != nil {
		c.Meta.Policy, c.Meta.Partition = meta.Policy, meta.Partition
	}
	r := &replay{cfg: c, accs: make([]workload.Access, chunkSize)}
	if r.gen, err = workload.New(c.Benchmark); err != nil {
		return nil, err
	}
	r.gen.Reset(c.Seed)
	if r.hier, err = hierarchy.New(c.Hierarchy); err != nil {
		return nil, err
	}
	if r.mem, err = dram.New(c.DRAM); err != nil {
		return nil, err
	}
	if !c.Secure {
		return r, nil
	}
	footprint := (r.gen.Footprint() + memlayout.PageSize - 1) &^ (memlayout.PageSize - 1)
	layout, err := memlayout.New(c.Org, footprint)
	if err != nil {
		return nil, err
	}
	if c.Meta != nil {
		if r.meta, err = metacache.New(*c.Meta); err != nil {
			return nil, err
		}
	}
	r.eng, err = engine.New(engine.Config{
		Layout:            layout,
		Meta:              r.meta,
		DRAM:              r.mem,
		Speculation:       c.Speculation,
		SpeculationWindow: c.SpeculationWindow,
	})
	return r, err
}

// phase runs until limit instructions retire, chunk by chunk, and
// returns the instructions retired (the last access may overshoot,
// exactly as in the direct run).
func (r *replay) phase(rec *recorder, parent int, op string, limit uint64) uint64 {
	var (
		instrs  uint64
		l2Lat   = r.cfg.L2HitLatency
		l3Lat   = r.cfg.L3HitLatency
		baseCPI = r.cfg.BaseCPI
		unitCPI = r.cfg.BaseCPI == 1.0
	)
	for instrs < limit {
		s := rec.begin(parent, op, spanWorkload)
		n := 0
		for n < chunkSize && instrs < limit {
			r.gen.Next(&r.accs[n])
			instrs += uint64(r.accs[n].Gap)
			n++
		}
		rec.end(s)
		r.accesses += uint64(n)

		s = rec.begin(parent, op, spanHierarchy)
		r.evs = r.evs[:0]
		pending := r.pending
		for i := 0; i < n; i++ {
			a := &r.accs[i]
			if unitCPI {
				pending += uint64(a.Gap)
			} else {
				pending += uint64(float64(a.Gap) * baseCPI)
			}
			out := r.hier.Access(a.Addr, a.Write)
			switch out.Hit {
			case hierarchy.L2:
				pending += l2Lat
			case hierarchy.L3:
				pending += l3Lat
			case hierarchy.Memory:
				r.evs = append(r.evs, event{delta: pending + l3Lat, addr: a.Addr})
				pending = 0
			}
			for _, wb := range out.Writebacks {
				r.evs = append(r.evs, event{delta: pending, addr: wb, wb: true})
				pending = 0
			}
		}
		r.pending = pending
		rec.end(s)
		r.events += uint64(len(r.evs))

		s = rec.begin(parent, op, spanEngine)
		cycles := r.cycles
		if r.eng != nil {
			for _, e := range r.evs {
				cycles += e.delta
				if e.wb {
					r.eng.Writeback(cycles, e.addr)
				} else {
					cycles += r.eng.Read(cycles, e.addr)
				}
			}
		} else {
			for _, e := range r.evs {
				cycles += e.delta
				if e.wb {
					r.mem.Access(cycles, e.addr, true)
				} else {
					cycles += r.mem.Access(cycles, memlayout.BlockOf(e.addr), false)
				}
			}
		}
		r.cycles = cycles
		rec.end(s)
	}
	r.cycles += r.pending
	r.pending = 0
	return instrs
}

// run replays warmup and the measured window under one parent span and
// returns the figures the direct run must match.
func (r *replay) run(rec *recorder, op string) simFigures {
	root := rec.begin(0, op, spanRun)
	defer rec.end(root)
	r.phase(rec, root, op, r.cfg.Warmup)
	r.hier.ResetStats()
	r.mem.ResetStats()
	if r.eng != nil {
		r.eng.ResetStats()
	}
	start := r.cycles
	measured := r.phase(rec, root, op, r.cfg.Instructions)
	f := simFigures{
		Instructions: measured,
		Cycles:       r.cycles - start,
		Hier:         [3]cache.Stats{r.hier.L1Stats(), r.hier.L2Stats(), r.hier.L3Stats()},
		DRAM:         r.mem.Stats(),
	}
	if r.eng != nil {
		st := r.eng.Stats()
		f.Mem = st.Mem
		f.Reads, f.Writebacks = st.Reads, st.Writebacks
		f.TreeWalkLevels = st.TreeWalkLevels
		f.PageReencryptions = st.PageReencryptions
	}
	if r.meta != nil {
		for i, k := range memlayout.MetaKinds {
			ks := r.meta.KindStats(k)
			f.Meta[i] = kindCounts{ks.Accesses, ks.Hits, ks.Misses, ks.Bypassed}
		}
	}
	return f
}

type kindCounts struct{ Accesses, Hits, Misses, Bypassed uint64 }

// simFigures are the simulated counts one run produces that the staged
// replay must reproduce bit for bit: cycles, every hierarchy level's
// stats (LLC misses among them), engine memory traffic, per-kind
// metadata-cache stats and DRAM counts.
type simFigures struct {
	Instructions uint64
	Cycles       uint64
	Hier         [3]cache.Stats
	Mem          engine.MemTraffic
	Meta         [3]kindCounts // memlayout.MetaKinds order
	DRAM         dram.Stats

	// Engine counts for the per-layer metrics. Only the replay fills
	// them; the comparison skips them.
	Reads, Writebacks, TreeWalkLevels, PageReencryptions uint64
}

// figuresOf extracts the comparable figures from a direct run.
func figuresOf(res *sim.Result) simFigures {
	f := simFigures{
		Instructions: res.Instructions,
		Cycles:       res.Cycles,
		Hier:         res.Hier,
		Mem:          res.Mem,
		DRAM:         res.DRAM,
	}
	for i, k := range memlayout.MetaKinds {
		if kr, ok := res.Meta[k]; ok {
			f.Meta[i] = kindCounts{kr.Accesses, kr.Hits, kr.Misses, kr.Bypassed}
		}
	}
	return f
}

// sameFigures reports the first simulated figure on which the replay
// differs from the direct run, or nil when they agree exactly.
func sameFigures(replayed, direct simFigures) error {
	type field struct {
		name string
		a, b any
	}
	for _, f := range []field{
		{"instructions", replayed.Instructions, direct.Instructions},
		{"cycles", replayed.Cycles, direct.Cycles},
		{"LLC misses", replayed.Hier[2].Misses, direct.Hier[2].Misses},
		{"hierarchy stats", replayed.Hier, direct.Hier},
		{"engine memory traffic", replayed.Mem, direct.Mem},
		{"metadata-cache stats", replayed.Meta, direct.Meta},
		{"DRAM stats", replayed.DRAM, direct.DRAM},
	} {
		if f.a != f.b {
			return fmt.Errorf("staged replay diverged on %s: replay %+v, direct %+v", f.name, f.a, f.b)
		}
	}
	return nil
}
