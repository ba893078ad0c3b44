// Package sim is the top-level simulation driver: it runs a workload
// through the cache hierarchy and (optionally) the secure-memory
// engine, producing the timing, traffic, MPKI, and energy numbers the
// MAPS experiments report.
//
// The core model is deliberately simple — a fixed base CPI plus
// blocking stalls for hierarchy and memory latency — because every
// result in the paper is driven by the LLC miss/writeback stream and
// the metadata traffic it induces, not by core microarchitecture
// (DESIGN.md §1).
package sim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/maps-sim/mapsim/internal/cache"
	"github.com/maps-sim/mapsim/internal/dram"
	"github.com/maps-sim/mapsim/internal/energy"
	"github.com/maps-sim/mapsim/internal/faults"
	"github.com/maps-sim/mapsim/internal/hierarchy"
	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/obs"
	"github.com/maps-sim/mapsim/internal/secmem/engine"
	"github.com/maps-sim/mapsim/internal/trace"
	"github.com/maps-sim/mapsim/internal/workload"
	"github.com/maps-sim/mapsim/internal/workload/spec"
)

// Config describes one simulation.
type Config struct {
	// Benchmark selects a workload by name; Workload overrides it
	// with a caller-supplied generator.
	Benchmark string
	Workload  workload.Generator

	// WorkloadSpec selects a declarative multi-client workload
	// (internal/workload/spec) instead of a named benchmark. Benchmark
	// may be left empty (it is filled from the spec's name) or must
	// match it. Unlike Workload, a spec is pure data: spec-driven
	// configs canonicalize, hash, and dedupe through the result cache
	// like named-benchmark runs.
	WorkloadSpec *spec.Spec

	// TracePath replays a recorded streaming trace (see `mapstrace
	// record-workload`) as the workload. The file is machine-local
	// state, so trace-driven configs have no canonical form and never
	// enter the result cache. A record addressing 2^62 or above fails
	// the run when the simulation reaches it.
	TracePath string

	// Instructions is the measured instruction count (default 2M).
	Instructions uint64
	// Warmup is the unmeasured prefix (default Instructions/10).
	Warmup uint64
	// Seed drives the workload's randomness.
	Seed int64

	// Hierarchy sets the cache stack; zero selects Table I.
	Hierarchy hierarchy.Config

	// Secure enables the secure-memory engine. When false the run is
	// the insecure baseline used for normalization.
	Secure bool
	// Org selects the counter organization.
	Org memlayout.Organization
	// Meta configures the metadata cache; nil simulates no metadata
	// cache (every metadata access goes to memory). Zero Ways selects
	// Table I's 8, and zero Content caches every kind.
	Meta *metacache.Config
	// Speculation hides verification latency (PoisonIvy).
	Speculation bool
	// SpeculationWindow bounds the hidden verification latency in
	// cycles; zero = unbounded. Ignored without Speculation.
	SpeculationWindow uint64

	// DRAM sets memory timing; zero selects dram.Default.
	DRAM dram.Config
	// BaseCPI is the cycles-per-instruction floor (default 1.0).
	BaseCPI float64
	// L2HitLatency and L3HitLatency are the extra stall cycles for
	// hits below L1 (defaults 12 and 40).
	L2HitLatency uint64
	L3HitLatency uint64

	// Tap observes every metadata access the engine makes, warmup
	// included, for reuse analysis and trace recording.
	Tap func(trace.Access)

	// Progress, when non-nil, is ticked with retired instructions from
	// the run's cancellation checkpoints (every 64Ki instructions), so
	// an observer can watch a long run advance. Leaving it nil — the
	// default — costs the hot loop a nil check and nothing else.
	Progress *obs.Progress

	// DisableFastPath routes every cache (hierarchy levels and the
	// metadata cache) through cache.Cache's generic Policy interface
	// instead of their own packed sets. The two paths are
	// bit-identical by contract — this knob exists so the cross-check
	// tests can prove it — so it is erased during canonicalization and
	// never affects cached results.
	DisableFastPath bool
}

func (c *Config) fill() error {
	if c.Workload == nil {
		switch {
		case c.WorkloadSpec != nil:
			if c.TracePath != "" {
				return fmt.Errorf("sim: WorkloadSpec and TracePath are mutually exclusive")
			}
			if c.Benchmark != "" && c.Benchmark != c.WorkloadSpec.Name {
				return fmt.Errorf("sim: Benchmark %q conflicts with WorkloadSpec name %q", c.Benchmark, c.WorkloadSpec.Name)
			}
			g, err := c.WorkloadSpec.Generator()
			if err != nil {
				return err
			}
			c.Workload = g
		case c.TracePath != "":
			if c.Benchmark != "" {
				return fmt.Errorf("sim: Benchmark and TracePath are mutually exclusive")
			}
			g, err := workload.NewTraceReplay(c.TracePath)
			if err != nil {
				return err
			}
			c.Workload = g
		case c.Benchmark != "":
			g, err := workload.New(c.Benchmark)
			if err != nil {
				return err
			}
			c.Workload = g
		default:
			return fmt.Errorf("sim: one of Benchmark, WorkloadSpec, TracePath, or Workload is required")
		}
	}
	c.fillDefaults()
	return nil
}

// Canonical returns the configuration with every default applied —
// the same rules Run uses — without resolving the workload generator,
// so two configs that would simulate identically compare (and hash)
// equal. It is the canonicalization step behind the result cache's
// content addressing. Configs carrying caller-supplied state
// (Workload, Tap, Progress, Meta.Policy, Meta.Partition) have no
// canonical form and are rejected.
func (c Config) Canonical() (Config, error) {
	switch {
	case c.Workload != nil:
		return c, fmt.Errorf("sim: config with a caller-supplied Workload is not canonicalizable")
	case c.TracePath != "":
		return c, fmt.Errorf("sim: config with a TracePath is not canonicalizable (trace files are machine-local)")
	case c.Tap != nil:
		return c, fmt.Errorf("sim: config with a Tap is not canonicalizable")
	case c.Progress != nil:
		return c, fmt.Errorf("sim: config with a Progress is not canonicalizable")
	case c.Meta != nil && (c.Meta.Policy != nil || c.Meta.Partition != nil):
		return c, fmt.Errorf("sim: config with a stateful Meta.Policy or Meta.Partition is not canonicalizable")
	case c.Benchmark == "" && c.WorkloadSpec == nil:
		return c, fmt.Errorf("sim: Benchmark is required")
	}
	if c.WorkloadSpec != nil {
		if err := c.WorkloadSpec.Validate(); err != nil {
			return c, err
		}
		if c.Benchmark != "" && c.Benchmark != c.WorkloadSpec.Name {
			return c, fmt.Errorf("sim: Benchmark %q conflicts with WorkloadSpec name %q", c.Benchmark, c.WorkloadSpec.Name)
		}
		// Normalize the spec so equivalent spellings hash identically.
		c.WorkloadSpec = c.WorkloadSpec.Canonicalize()
	}
	if c.Meta != nil {
		metaCopy := *c.Meta
		c.Meta = &metaCopy
		c.Meta.DisableFastPath = false
	}
	c.fillDefaults()
	// The fast and generic paths produce bit-identical results, so the
	// knob carries no simulation identity.
	c.DisableFastPath = false
	c.Hierarchy.DisableFastPath = false
	return c, nil
}

// fillDefaults applies every scalar default. Run's fill and Canonical
// share it so content addressing can never drift from what Run would
// actually simulate.
func (c *Config) fillDefaults() {
	if c.Benchmark == "" && c.Workload != nil {
		c.Benchmark = c.Workload.Name()
	}
	if c.Benchmark == "" && c.WorkloadSpec != nil {
		c.Benchmark = c.WorkloadSpec.Name
	}
	if c.Instructions == 0 {
		c.Instructions = 2_000_000
	}
	if c.Warmup == 0 {
		c.Warmup = c.Instructions / 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Hierarchy == (hierarchy.Config{}) {
		c.Hierarchy = hierarchy.Default()
	}
	if m := c.Meta; m != nil && (m.Ways == 0 || m.Content == 0) {
		// Table I's metadata cache is 8-way and may hold every kind,
		// so a zero and an explicit default simulate — and hash —
		// identically. Fill a copy: Meta is the caller's.
		mc := *m
		if mc.Ways == 0 {
			mc.Ways = 8
		}
		if mc.Content == 0 {
			mc.Content = metacache.AllTypes
		}
		c.Meta = &mc
	}
	if c.DRAM == (dram.Config{}) {
		c.DRAM = dram.Default()
	}
	if c.BaseCPI == 0 {
		c.BaseCPI = 1.0
	}
	if c.L2HitLatency == 0 {
		c.L2HitLatency = 12
	}
	if c.L3HitLatency == 0 {
		c.L3HitLatency = 40
	}
}

// KindResult summarizes one metadata kind. Bypassed accesses (kinds
// the content policy excludes) are not misses — matching the paper's
// Figure 1 metric — but still generate memory traffic.
type KindResult struct {
	Accesses uint64  `json:"accesses"`
	Hits     uint64  `json:"hits"`
	Misses   uint64  `json:"misses"`
	Bypassed uint64  `json:"bypassed"`
	MPKI     float64 `json:"mpki"`
}

// PhaseTiming records where a run's wall-clock time went, split by
// simulation phase. Durations serialize as nanoseconds. The phase
// names match the span taxonomy in docs/OBSERVABILITY.md: setup
// (building the hierarchy, DRAM model, and secure-memory engine),
// warmup (the unmeasured prefix), and measure (the measured window).
type PhaseTiming struct {
	Setup   time.Duration `json:"setup_ns"`
	Warmup  time.Duration `json:"warmup_ns"`
	Measure time.Duration `json:"measure_ns"`
	Total   time.Duration `json:"total_ns"`
}

// Result is the output of one simulation.
type Result struct {
	Benchmark    string  `json:"benchmark"`
	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	IPC          float64 `json:"ipc"`

	LLC      cache.Stats    `json:"llc"`
	LLCMPKI  float64        `json:"llc_mpki"`
	Hier     [3]cache.Stats `json:"hierarchy"` // L1, L2, L3
	DataMPKI float64        `json:"data_mpki"` // alias of LLCMPKI for readability

	// Metadata cache results (zero when no metadata cache / insecure).
	Meta        map[memlayout.Kind]KindResult `json:"meta,omitempty"`
	MetaMPKI    float64                       `json:"meta_mpki"`    // metadata-cache misses per kilo-instruction
	MetaMemPKI  float64                       `json:"meta_mem_pki"` // metadata *memory accesses* per kilo-instruction
	MetaHitRate float64                       `json:"meta_hit_rate"`
	// TreeLevels holds per-tree-level cache behaviour (leaf first);
	// upper levels cover more data and should hit more.
	TreeLevels []KindResult `json:"tree_levels,omitempty"`

	Mem               engine.MemTraffic `json:"mem_traffic"`
	PageReencryptions uint64            `json:"page_reencryptions"`
	SpecWindowStalls  uint64            `json:"spec_window_stalls"`

	DRAM dram.Stats `json:"dram"`

	Energy   energy.Account `json:"energy"`
	EnergyPJ float64        `json:"energy_pj"`
	ED2      float64        `json:"ed2"`

	// Timing is the run's own wall-clock profile (host time, not
	// simulated cycles).
	Timing PhaseTiming `json:"timing"`

	// Sharding is always nil.
	//
	// Deprecated: it described the removed epoch-parallel driver and
	// is kept only so existing code that clears it still compiles.
	Sharding *struct{} `json:"sharding,omitempty"`
}

// cancelCheckInterval is how many instructions the simulation loop
// retires between context checks — rare enough that the check never
// shows up in profiles, frequent enough (~100 µs of simulated work)
// that cancellation feels immediate.
const cancelCheckInterval = 1 << 16

// faultStep is the injection point armed (as "sim.step") to make a
// running simulation fail or stall mid-flight. It is evaluated only at
// cancellation checkpoints — every 64Ki instructions — so the per-access
// hot loop carries no fault-injection cost at all, and even the
// checkpoint pays one inlined atomic load while disarmed (the
// benchcheck gate holds it to that).
var faultStep = faults.P("sim.step")

// Run executes one simulation to completion; it cannot be cancelled.
func Run(cfg Config) (*Result, error) { return RunContext(context.Background(), cfg) }

// RunContext executes one simulation, stopping early with ctx.Err()
// if the context is cancelled or its deadline passes mid-run. It is
// the one-member RunGroup.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	var out [1]*Result
	if err := runGroup(ctx, []Config{cfg}, out[:]); err != nil {
		return nil, err
	}
	return out[0], nil
}

// Front is the identity of a run's front stage (workload generator +
// cache hierarchy): the fields the front reads, with defaults
// applied. Configs with equal Fronts produce the same LLC event
// stream, whatever their back ends (secure or not, organization,
// metadata cache, DRAM), so RunGroup simulates that front once for
// all of them.
type Front struct {
	// Workload names the access stream: a benchmark name, or "spec:"
	// and the canonical JSON of a workload spec.
	Workload string
	// Seed through L3HitLatency are the Config fields of the same
	// names, defaults applied.
	Seed         int64
	Warmup       uint64
	Instructions uint64
	// Hierarchy includes the effective DisableFastPath (the config's
	// own flag or the hierarchy's).
	Hierarchy    hierarchy.Config
	BaseCPI      float64
	L2HitLatency uint64
	L3HitLatency uint64
}

// FrontOf returns cfg's front identity. ok is false for a config
// that must run alone: a trace replay or caller-supplied Workload,
// whose generator is machine-local state with no identity of its own,
// or a config whose workload fields are missing or conflict.
func FrontOf(cfg Config) (f Front, ok bool) {
	if cfg.Workload != nil || cfg.TracePath != "" {
		return Front{}, false
	}
	switch {
	case cfg.WorkloadSpec != nil:
		if cfg.WorkloadSpec.Validate() != nil ||
			cfg.Benchmark != "" && cfg.Benchmark != cfg.WorkloadSpec.Name {
			return Front{}, false
		}
		f.Workload = "spec:" + string(cfg.WorkloadSpec.CanonicalJSON())
	case cfg.Benchmark != "":
		f.Workload = cfg.Benchmark
	default:
		return Front{}, false
	}
	cfg.fillDefaults()
	f.Seed, f.Warmup, f.Instructions = cfg.Seed, cfg.Warmup, cfg.Instructions
	f.Hierarchy = cfg.Hierarchy
	f.Hierarchy.DisableFastPath = cfg.Hierarchy.DisableFastPath || cfg.DisableFastPath
	f.BaseCPI, f.L2HitLatency, f.L3HitLatency = cfg.BaseCPI, cfg.L2HitLatency, cfg.L3HitLatency
	return f, true
}

// RunGroup simulates configs that share one front (FrontOf) in a
// single pass: one generator + hierarchy feeds every member's own
// back end (engine, metadata cache, DRAM, cycle counter), batch by
// batch in member order. Each member's Result, Timing aside, is
// exactly what RunContext returns for it alone; Timing reports 1/k
// of the group's setup, warmup, measure, and total host time, so
// members' timings still sum to the time spent. Each member's Tap
// sees its own metadata stream in simulation order and each
// Progress is ticked. The group fails as a unit, and it is rejected
// up front unless every member shares the first one's front.
func RunGroup(ctx context.Context, cfgs []Config) ([]*Result, error) {
	out := make([]*Result, len(cfgs))
	if err := runGroup(ctx, append([]Config(nil), cfgs...), out); err != nil {
		return nil, err
	}
	return out, nil
}

// runGroup is RunGroup on configs it may fill in place, delivering
// member i's Result to out[i]. A one-member group allocates nothing
// beyond what a run always did (benchcheck gates allocs/op), hence
// the caller-supplied out and the one-member special cases below.
func runGroup(ctx context.Context, cfgs []Config, out []*Result) error {
	if len(cfgs) == 0 {
		return errors.New("sim: empty run group")
	}
	if len(cfgs) > 1 {
		lead, ok := FrontOf(cfgs[0])
		for i := range cfgs {
			if f, fok := FrontOf(cfgs[i]); !ok || !fok || f != lead {
				return fmt.Errorf("sim: run group member %d (%s) does not share member 0's front", i, cfgs[i].Benchmark)
			}
		}
	}
	if err := cfgs[0].fill(); err != nil {
		return err
	}
	pipelined := false
	for i := range cfgs {
		c := &cfgs[i]
		if i > 0 {
			c.fillDefaults() // the front, generator included, is member 0's
		}
		if c.DisableFastPath {
			c.Hierarchy.DisableFastPath = true
			if c.Meta != nil {
				metaCopy := *c.Meta
				metaCopy.DisableFastPath = true
				c.Meta = &metaCopy
			}
		}
		pipelined = pipelined || pipelines(ctx, c)
	}
	lead := &cfgs[0]
	endRun := obs.Span(ctx, "run", "benchmark", lead.Benchmark, "pipelined", pipelined, "members", len(cfgs))
	endSetup := obs.Span(ctx, "setup", "benchmark", lead.Benchmark)
	var prog *obs.Progress
	var progs []*obs.Progress
	if len(cfgs) == 1 {
		prog = lead.Progress
	} else {
		progs = make([]*obs.Progress, len(cfgs))
	}
	for i := range cfgs {
		if p := cfgs[i].Progress; p != nil {
			// EnsureTotal, not Start: in a suite fan-out the
			// coordinator has already published the whole suite's
			// total.
			p.EnsureTotal(cfgs[i].Warmup + cfgs[i].Instructions)
			if progs != nil {
				progs[i] = p
			}
		}
	}
	gen := lead.Workload
	gen.Reset(lead.Seed)

	hier, err := hierarchy.New(lead.Hierarchy)
	if err != nil {
		return err
	}
	// The two stages (see pipeline.go): the front runs here; the back
	// — every member's, in turn — runs batch by batch on this
	// goroutine or, pipelined, on its own.
	bk := &backs{ctx: ctx, bench: lead.Benchmark}
	bk.members = bk.one[:]
	if len(cfgs) > 1 {
		bk.members = make([]back, len(cfgs))
	}
	for i := range cfgs {
		if err := bk.members[i].build(&cfgs[i], gen.Footprint()); err != nil {
			if len(cfgs) > 1 {
				err = fmt.Errorf("sim: run group member %d: %w", i, err)
			}
			return err
		}
	}
	setupTime := endSetup()

	fr := &front{
		ctx:     ctx,
		gen:     gen,
		hier:    hier,
		prog:    prog,
		progs:   progs,
		l2Lat:   lead.L2HitLatency,
		l3Lat:   lead.L3HitLatency,
		baseCPI: lead.BaseCPI,
	}
	var p *pipe
	if pipelined {
		p, fr.buf = startPipe(bk)
		fr.emit = p.emit
		defer p.join() // unwinds the back stage on every exit, panics included
	} else {
		fr.buf, fr.emit = make([]event, batchLen), bk.emitInline
	}

	// Warmup: run, then discard statistics (state persists).
	bk.endWarmup = obs.Span(ctx, "warmup", "benchmark", lead.Benchmark)
	_, err = fr.run(lead.Warmup)
	if err == nil {
		err = fr.endWarmup()
	}
	var measured uint64
	if err == nil {
		measured, err = fr.run(lead.Instructions)
	}
	if err == nil {
		err = fr.flush()
	}
	if p != nil {
		p.join()
		if p.panicked != nil {
			panic(p.panicked)
		}
	}
	if err != nil {
		return fmt.Errorf("sim: %s: %w", lead.Benchmark, err)
	}
	measureTime := bk.endMeasure()
	if fr.sinceCheck > 0 {
		// Flush the sub-checkpoint remainder so the run finishes at
		// exactly Warmup+Instructions done.
		fr.tick(fr.sinceCheck)
	}

	for i := range cfgs {
		b := &bk.members[i]
		cycles := b.cycles + fr.pending - b.cyclesStart
		out[i] = buildResult(cfgs[i], measured, cycles, hier, b.mem, b.eng, b.meta)
	}
	k := time.Duration(len(cfgs))
	timing := PhaseTiming{
		Setup:   setupTime / k,
		Warmup:  bk.warmup / k,
		Measure: measureTime / k,
		Total:   endRun() / k,
	}
	for _, res := range out {
		res.Timing = timing
		obs.From(ctx).Debug("run done",
			"benchmark", res.Benchmark,
			"instructions", measured,
			"ipc", res.IPC,
			"wall", res.Timing.Total)
	}
	return nil
}

// buildResult assembles the reported Result (everything except
// Timing) from the models' statistics at the end of a run. eng and
// meta are nil when the run had no engine or no metadata cache.
func buildResult(cfg Config, measured, cycles uint64, hier *hierarchy.Hierarchy, mem *dram.Memory, eng *engine.Engine, meta *metacache.MetaCache) *Result {
	res := &Result{
		Benchmark:    cfg.Benchmark,
		Instructions: measured,
		Cycles:       cycles,
		Hier:         [3]cache.Stats{hier.L1Stats(), hier.L2Stats(), hier.L3Stats()},
		DRAM:         mem.Stats(),
	}
	res.LLC = res.Hier[2]
	kilo := float64(measured) / 1000
	res.IPC = float64(measured) / float64(cycles)
	res.LLCMPKI = float64(res.LLC.Misses) / kilo
	res.DataMPKI = res.LLCMPKI

	if eng != nil {
		es := eng.Stats()
		res.Mem = es.Mem
		res.PageReencryptions = es.PageReencryptions
		res.SpecWindowStalls = es.SpecWindowStalls
		res.MetaMemPKI = float64(es.Mem.Metadata()) / kilo
		if meta != nil {
			res.Meta = make(map[memlayout.Kind]KindResult, 3)
			var misses, accesses, hits uint64
			for _, k := range memlayout.MetaKinds {
				ks := meta.KindStats(k)
				res.Meta[k] = KindResult{
					Accesses: ks.Accesses,
					Hits:     ks.Hits,
					Misses:   ks.Misses,
					Bypassed: ks.Bypassed,
					MPKI:     float64(ks.Misses) / kilo,
				}
				misses += ks.Misses
				accesses += ks.Accesses
				hits += ks.Hits
			}
			res.MetaMPKI = float64(misses) / kilo
			if accesses > 0 {
				res.MetaHitRate = float64(hits) / float64(accesses)
			}
			for level := 0; level < 16; level++ {
				ls := meta.LevelStats(level)
				if ls.Accesses == 0 {
					break
				}
				res.TreeLevels = append(res.TreeLevels, KindResult{
					Accesses: ls.Accesses,
					Hits:     ls.Hits,
					Misses:   ls.Misses,
					Bypassed: ls.Bypassed,
					MPKI:     float64(ls.Misses) / kilo,
				})
			}
		} else {
			// No metadata cache: every metadata memory access is a
			// "miss" for MPKI purposes.
			res.MetaMPKI = res.MetaMemPKI
		}
	}

	// Energy: core + per-level SRAM (dynamic + leakage) + metadata
	// SRAM + DRAM.
	res.Energy.AddInstructions(measured)
	res.Energy.AddSRAM(cfg.Hierarchy.L1Size, res.Hier[0].Accesses)
	res.Energy.AddSRAM(cfg.Hierarchy.L2Size, res.Hier[1].Accesses)
	res.Energy.AddSRAM(cfg.Hierarchy.L3Size, res.Hier[2].Accesses)
	res.Energy.AddSRAMLeakage(cfg.Hierarchy.L1Size+cfg.Hierarchy.L2Size+cfg.Hierarchy.L3Size, cycles)
	if meta != nil {
		res.Energy.AddSRAM(meta.Size(), meta.TotalStats().Accesses)
		res.Energy.AddSRAMLeakage(meta.Size(), cycles)
	}
	res.Energy.AddDRAMPJ(res.DRAM.EnergyPJ)
	res.EnergyPJ = res.Energy.TotalPJ()
	res.ED2 = energy.ED2(res.EnergyPJ, res.Cycles)
	return res
}
