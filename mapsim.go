// Package mapsim reproduces MAPS — "Understanding Metadata Access
// Patterns in Secure Memory" (Lehman, Hilton, Lee; ISPASS 2018) — as
// a Go library: a secure-memory simulator with counter-mode
// encryption, Bonsai Merkle Tree integrity, a type-aware metadata
// cache, reuse-distance analysis, and harnesses that regenerate every
// table and figure in the paper.
//
// The package is a facade over the internal implementation. Three
// entry points cover most uses:
//
//   - Run simulates one workload/configuration and reports MPKI,
//     traffic, energy, and ED².
//   - The Fig1..Fig7 and Table1/Table2 functions regenerate the
//     paper's experiments.
//   - NewSecureMemory builds the *functional* secure-memory
//     controller — real AES-CTR encryption and HMAC/tree verification
//     over a simulated physical memory — for studying (and testing)
//     the security mechanisms themselves.
//   - Client talks to a mapsd daemon (cmd/mapsd): the same
//     simulations as a service, with a job queue and a
//     content-addressed result cache so identical requests are
//     answered without re-simulating.
//
// See README.md for a tour and DESIGN.md for the system inventory.
package mapsim

import (
	"context"
	"io"

	"github.com/maps-sim/mapsim/internal/cache"
	"github.com/maps-sim/mapsim/internal/cache/eva"
	"github.com/maps-sim/mapsim/internal/cache/opt"
	"github.com/maps-sim/mapsim/internal/cache/policy"
	"github.com/maps-sim/mapsim/internal/cache/typepred"
	"github.com/maps-sim/mapsim/internal/experiments"
	"github.com/maps-sim/mapsim/internal/fleet"
	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/partition"
	"github.com/maps-sim/mapsim/internal/reuse"
	"github.com/maps-sim/mapsim/internal/secmem/engine"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/sweep"
	"github.com/maps-sim/mapsim/internal/trace"
	"github.com/maps-sim/mapsim/internal/workload"
	"github.com/maps-sim/mapsim/internal/workload/spec"
)

// Simulation API.
type (
	// Config describes one simulation run; see the field docs on the
	// underlying type.
	Config = sim.Config
	// Result is a simulation's output.
	Result = sim.Result
	// MetaConfig configures the metadata cache.
	MetaConfig = metacache.Config
	// ContentPolicy selects which metadata kinds may be cached.
	ContentPolicy = metacache.ContentPolicy
	// ReplacementPolicy is the cache replacement interface.
	ReplacementPolicy = cache.Policy
	// PartitionScheme constrains counter/hash placement.
	PartitionScheme = partition.Scheme
	// TraceAccess is one recorded metadata access.
	TraceAccess = trace.Access
	// Trace is a recorded metadata access sequence.
	Trace = trace.Trace
	// Kind classifies metadata blocks.
	Kind = memlayout.Kind
	// Organization selects the counter scheme (PoisonIvy or SGX).
	Organization = memlayout.Organization
	// Generator produces synthetic workload access streams.
	Generator = workload.Generator
	// ReuseAnalyzer measures metadata reuse distances.
	ReuseAnalyzer = reuse.Analyzer
)

// Metadata kinds and counter organizations.
const (
	KindData    = memlayout.KindData
	KindCounter = memlayout.KindCounter
	KindHash    = memlayout.KindHash
	KindTree    = memlayout.KindTree

	PoisonIvy = memlayout.PoisonIvy
	SGX       = memlayout.SGX
)

// Content policies for the metadata cache (Figure 1's comparisons).
const (
	CountersOnly   = metacache.CountersOnly
	CountersHashes = metacache.CountersHashes
	AllTypes       = metacache.AllTypes
)

// Run executes one simulation.
func Run(cfg Config) (*Result, error) { return sim.Run(cfg) }

// RunContext executes one simulation under a context: cancellation or
// deadline expiry stops the run mid-flight with ctx's error.
func RunContext(ctx context.Context, cfg Config) (*Result, error) { return sim.RunContext(ctx, cfg) }

// SuiteResult aggregates one configuration across benchmarks.
type SuiteResult = sim.SuiteResult

// RunSuite runs one configuration across a benchmark suite in
// parallel (empty list = all benchmarks) and reports per-benchmark
// results plus geometric means.
func RunSuite(base Config, benchmarks []string, parallelism int) (*SuiteResult, error) {
	return RunSuiteContext(context.Background(), base, benchmarks, parallelism)
}

// RunSuiteContext is RunSuite under a context. A suite is a sweep over
// the benchmark axis alone: base, less its Benchmark and Workload,
// expands into one point per benchmark, the points run through the one
// local sweep executor (fleet.RunLocal), and the sweep's result reduces
// to the suite's (sweep.Result.Suite). So an unknown or repeated
// benchmark, or a base the sweep cannot share (a WorkloadSpec,
// TracePath, Tap, or policy instance), fails before anything
// simulates, and a failing benchmark cancels the rest. A Progress on
// base counts the whole suite.
func RunSuiteContext(ctx context.Context, base Config, benchmarks []string, parallelism int) (*SuiteResult, error) {
	if len(benchmarks) == 0 {
		benchmarks = workload.Names() // an empty axis would mean base.Benchmark
	}
	prog := base.Progress
	base.Workload, base.Progress = nil, nil
	points, err := sweep.Spec{Base: base, Axes: sweep.Axes{Benchmarks: benchmarks}}.Expand()
	if err != nil {
		return nil, err
	}
	if prog != nil {
		// Publish the whole suite's total before any run starts; each
		// run's own EnsureTotal then leaves it alone. Expand refuses a
		// Progress in the base, and RunLocal keys nothing, so the
		// points take it after expansion.
		c, err := points[0].Config.Canonical()
		if err != nil {
			return nil, err
		}
		prog.Start(uint64(len(points)) * (c.Warmup + c.Instructions))
		for i := range points {
			points[i].Config.Progress = prog
		}
	}
	res, err := fleet.RunLocal(ctx, points, parallelism, nil)
	if err != nil {
		return nil, err
	}
	return res.Suite(), nil
}

// SeedsResult reports metric spread across workload seeds.
type SeedsResult = sim.SeedsResult

// RunSeeds repeats one configuration across n workload seeds and
// reports the metric spread, quantifying synthetic-workload
// stability.
func RunSeeds(cfg Config, n int) (*SeedsResult, error) { return sim.RunSeeds(cfg, n) }

// Benchmarks lists the available synthetic workloads.
func Benchmarks() []string { return workload.Names() }

// MemoryIntensiveBenchmarks lists the subset the paper focuses on.
func MemoryIntensiveBenchmarks() []string { return workload.MemoryIntensive() }

// NewBenchmark returns a fresh generator for a named workload.
func NewBenchmark(name string) (Generator, error) { return workload.New(name) }

// SyntheticConfig parameterizes a custom workload generator.
type SyntheticConfig = workload.SyntheticConfig

// NewSynthetic builds a workload generator from explicit locality,
// footprint, and write-mix knobs.
func NewSynthetic(cfg SyntheticConfig) (Generator, error) { return workload.NewSynthetic(cfg) }

// WorkloadSpec is a declarative multi-client workload description
// (YAML or JSON); see docs/WORKLOADS.md for the schema.
type WorkloadSpec = spec.Spec

// ParseWorkloadSpec decodes a YAML or JSON workload spec and
// validates it. The result can be set on Config.WorkloadSpec or
// turned into a Generator directly.
func ParseWorkloadSpec(data []byte) (*WorkloadSpec, error) { return spec.Parse(data) }

// NewTraceReplay builds a generator that replays a recorded workload
// trace (see `mapstrace record-workload`) in constant memory, looping
// when the simulation outruns the recording.
func NewTraceReplay(path string) (Generator, error) { return workload.NewTraceReplay(path) }

// Streaming trace I/O: constant-memory readers and writers for the
// one on-disk trace format, shared by metadata traces (`mapstrace
// record`, header Meta set) and workload traces (`mapstrace
// record-workload`).
type (
	// TraceRecord is one streamed trace record.
	TraceRecord = trace.Record
	// TraceReader decodes a trace stream record by record.
	TraceReader = trace.Reader
	// TraceWriter encodes a trace stream record by record.
	TraceWriter = trace.Writer
	// TraceStreamHeader describes a streamed trace.
	TraceStreamHeader = trace.StreamHeader
)

// NewTraceReader opens a streaming trace reader over a metadata or a
// workload trace; its Header tells which.
func NewTraceReader(r io.Reader) (*TraceReader, error) { return trace.NewReader(r) }

// NewTraceWriter opens a streaming trace writer (optionally
// gzip-compressed). Close flushes the end-of-stream marker that lets
// readers distinguish clean ends from truncation.
func NewTraceWriter(w io.Writer, h TraceStreamHeader, compress bool) (*TraceWriter, error) {
	return trace.NewWriter(w, h, compress)
}

// NewLRU returns true least-recently-used replacement.
func NewLRU() ReplacementPolicy { return policy.NewLRU() }

// NewPLRU returns tree pseudo-LRU replacement — the paper's baseline
// metadata-cache policy.
func NewPLRU() ReplacementPolicy { return policy.NewPLRU() }

// NewFIFO returns first-in-first-out replacement.
func NewFIFO() ReplacementPolicy { return policy.NewFIFO() }

// NewSRRIP returns static re-reference interval prediction.
func NewSRRIP() ReplacementPolicy { return policy.NewSRRIP() }

// NewBRRIP returns bimodal re-reference interval prediction.
func NewBRRIP() ReplacementPolicy { return policy.NewBRRIP() }

// NewEVA returns the economic-value-added policy the paper evaluates
// in Figure 6.
func NewEVA() ReplacementPolicy { return eva.New(eva.Config{}) }

// NewPerTypeEVA returns EVA with one age histogram per metadata
// class — the fix implied by the paper's diagnosis that bimodal
// metadata reuse defeats EVA's single histogram.
func NewPerTypeEVA() ReplacementPolicy { return eva.NewPerType(eva.Config{}) }

// NewMIN returns Belady's offline-optimal replacement, driven by a
// recorded trace of the run it will replay (Figure 6's MIN bound).
func NewMIN(tr *Trace) ReplacementPolicy {
	return opt.NewMIN(tr)
}

// NewTypePredictor returns the type-aware reuse predictor — the
// replacement direction the paper's conclusions propose (metadata
// type and access type as the prediction signature).
func NewTypePredictor() ReplacementPolicy { return typepred.New() }

// NewRandomPolicy returns seeded random replacement.
func NewRandomPolicy(seed uint64) ReplacementPolicy { return policy.NewRandom(seed) }

// NoPartition returns the unpartitioned metadata cache (Figure 7's
// "none" baseline).
func NoPartition() PartitionScheme { return partition.NewNone() }

// StaticPartition reserves a fixed number of ways for counters and
// leaves the rest to the other metadata classes.
func StaticPartition(ways int) PartitionScheme { return partition.NewStatic(ways) }

// DynamicPartition returns a set-dueling partitioner that picks
// between the two candidate way splits at runtime (Figure 7's
// "dynamic" scheme).
func DynamicPartition(a, b int) PartitionScheme { return partition.NewDynamic(a, b) }

// NewReuseAnalyzer creates a reuse-distance analyzer; wire its Record
// into Config.Tap to profile a run.
func NewReuseAnalyzer(sizeHint int) *ReuseAnalyzer { return reuse.NewAnalyzer(sizeHint) }

// Experiment harnesses: every table and figure in the paper.
type (
	// ExperimentOptions tunes an experiment sweep.
	ExperimentOptions = experiments.Options
	Fig1Result        = experiments.Fig1Result
	Fig2Result        = experiments.Fig2Result
	Fig3Result        = experiments.Fig3Result
	Fig4Result        = experiments.Fig4Result
	Fig5Result        = experiments.Fig5Result
	Fig6Result        = experiments.Fig6Result
	Fig7Result        = experiments.Fig7Result
)

// Fig1 regenerates Figure 1 (MPKI vs metadata cache contents/size).
func Fig1(opt ExperimentOptions) (*Fig1Result, error) { return experiments.Fig1(opt) }

// Fig2 regenerates Figure 2 (normalized ED² across cache budgets).
func Fig2(opt ExperimentOptions) (*Fig2Result, error) { return experiments.Fig2(opt) }

// Fig3 regenerates Figure 3 (reuse-distance CDFs by metadata type).
func Fig3(opt ExperimentOptions) (*Fig3Result, error) { return experiments.Fig3(opt) }

// Fig4 regenerates Figure 4 (bimodal reuse-distance classes).
func Fig4(opt ExperimentOptions) (*Fig4Result, error) { return experiments.Fig4(opt) }

// Fig5 regenerates Figure 5 (reuse CDFs by request type).
func Fig5(opt ExperimentOptions) (*Fig5Result, error) { return experiments.Fig5(opt) }

// Fig6 regenerates Figure 6 (eviction policies incl. MIN/iterMIN).
func Fig6(opt ExperimentOptions) (*Fig6Result, error) { return experiments.Fig6(opt) }

// Fig7 regenerates Figure 7 (cache partitioning schemes).
func Fig7(opt ExperimentOptions) (*Fig7Result, error) { return experiments.Fig7(opt) }

// Table1 renders the simulation configuration (Table I).
func Table1() string { return experiments.Table1() }

// Table2 renders the metadata organization table (Table II), computed
// from the layout math.
func Table2() string { return experiments.Table2().Render() }

// Functional secure memory.
type (
	// SecureMemory is the functional controller: real encryption,
	// hashing, and tree verification over a simulated physical
	// memory.
	SecureMemory = engine.Functional
	// Block is a 64-byte data block.
	Block = engine.Block
	// IntegrityError reports a detected physical attack.
	IntegrityError = engine.IntegrityError
)

// NewSecureMemory builds a functional secure-memory controller
// protecting dataBytes of memory (a multiple of 4 KB, at most
// 256 MB) under the given counter organization and keys.
func NewSecureMemory(org Organization, dataBytes uint64, encKey, macKey []byte) (*SecureMemory, error) {
	layout, err := memlayout.New(org, dataBytes)
	if err != nil {
		return nil, err
	}
	return engine.NewFunctional(layout, encKey, macKey)
}

// CachedSecureMemory is the functional controller with a verified
// on-chip counter cache: hits skip the tree walk, demonstrating (and
// testing) the security argument the paper's metadata cache relies
// on.
type CachedSecureMemory = engine.CachedFunctional

// NewCachedSecureMemory wraps a functional controller with a verified
// counter cache of the given geometry.
func NewCachedSecureMemory(sm *SecureMemory, cacheBytes, ways int) (*CachedSecureMemory, error) {
	return engine.NewCachedFunctional(sm, cacheBytes, ways)
}
