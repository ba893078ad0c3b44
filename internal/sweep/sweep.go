// Package sweep describes the parameter sweeps behind every MAPS
// figure: a declarative Spec of axes over sim.Config fields —
// metadata-cache size, content policy, replacement policy, partition
// scheme, LLC size, benchmark, secure/insecure, partial writes — is
// expanded into a deterministic config grid, partitioned into run
// groups that share a front, and aggregated into a Result with stable
// point ordering, per-axis geomeans, and a rendered pivot table.
// Executing a sweep — bounded parallelism, fail-fast cancellation,
// dedupe against the content-addressed result cache — is
// internal/fleet's job (fleet.RunLocal in-process, a fleet.Coordinator
// in mapsd).
//
// The grid order is fixed (benchmark outermost, then secure, LLC
// size, metadata size, content, policy, partition, partial writes
// innermost), so the same Spec always yields the same point indices —
// the property the dedupe keys, the progress counters, and the
// regression tests all rely on.
package sweep

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/maps-sim/mapsim/internal/cache"
	"github.com/maps-sim/mapsim/internal/cache/eva"
	"github.com/maps-sim/mapsim/internal/cache/policy"
	"github.com/maps-sim/mapsim/internal/cache/typepred"
	"github.com/maps-sim/mapsim/internal/hierarchy"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/partition"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/workload"
	"github.com/maps-sim/mapsim/internal/workload/spec"
)

// IntAxis selects integer axis points (byte sizes) either explicitly
// (Points) or as a geometric range: Min, Min*Factor, ... up to Max
// inclusive (Factor defaults to 2). An axis with neither is absent —
// the point inherits the base config's value.
type IntAxis struct {
	// Points lists the values explicitly, in sweep order.
	Points []int `json:"points,omitempty"`
	// Min and Max bound a geometric range (both required together).
	Min int `json:"min,omitempty"`
	Max int `json:"max,omitempty"`
	// Factor is the range's multiplicative step (default 2).
	Factor int `json:"factor,omitempty"`
}

// expand resolves the axis to its point list (nil when absent).
func (a IntAxis) expand() ([]int, error) {
	if len(a.Points) > 0 {
		if a.Min != 0 || a.Max != 0 {
			return nil, fmt.Errorf("sweep: axis gives both points and a min/max range")
		}
		for _, p := range a.Points {
			if p < 0 {
				return nil, fmt.Errorf("sweep: negative axis point %d", p)
			}
		}
		return a.Points, nil
	}
	if a.Min == 0 && a.Max == 0 {
		return nil, nil
	}
	if a.Min <= 0 || a.Max < a.Min {
		return nil, fmt.Errorf("sweep: bad axis range [%d, %d]", a.Min, a.Max)
	}
	factor := a.Factor
	if factor == 0 {
		factor = 2
	}
	if factor < 2 {
		return nil, fmt.Errorf("sweep: axis range factor %d must be >= 2", factor)
	}
	var pts []int
	for v := a.Min; v <= a.Max; v *= factor {
		pts = append(pts, v)
	}
	return pts, nil
}

// Axes declares the sweep dimensions. Every empty axis contributes a
// single implicit point that inherits the base config, so a Spec with
// no axes at all is a one-point sweep of its base.
type Axes struct {
	// Benchmarks is the workload axis. Empty uses Base.Benchmark.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Secure sweeps the secure-memory engine on/off.
	Secure []bool `json:"secure,omitempty"`
	// LLC sweeps the L3 capacity in bytes.
	LLC IntAxis `json:"llc,omitempty"`
	// Meta sweeps the metadata-cache capacity in bytes. The value 0 is
	// a legal point meaning "no metadata cache".
	Meta IntAxis `json:"meta,omitempty"`
	// Contents sweeps the content policy by name ("counters",
	// "counters+hashes", "all", ...).
	Contents []string `json:"contents,omitempty"`
	// Policies sweeps the replacement policy by name (see
	// PolicyNames); a fresh instance is built per run, so points never
	// share policy state.
	Policies []string `json:"policies,omitempty"`
	// Partitions sweeps the way-partition scheme by name (see
	// ParsePartition): "none", "static:N", or "dynamic".
	Partitions []string `json:"partitions,omitempty"`
	// PartialWrites sweeps the partial-write optimization on/off.
	PartialWrites []bool `json:"partial_writes,omitempty"`
	// WorkloadSpecs extends the workload axis with declarative
	// multi-client specs (internal/workload/spec), swept after the
	// named Benchmarks on the same (outermost) axis. Each spec's name
	// labels its points exactly as a benchmark name would.
	WorkloadSpecs []*spec.Spec `json:"workload_specs,omitempty"`
}

// Spec is one declarative sweep: a shared base configuration plus the
// axes that vary across the grid.
type Spec struct {
	// Base is the configuration shared by every point; axis values
	// override its fields. It must be canonicalizable: no Workload,
	// Tap, Progress, or stateful Meta.Policy/Meta.Partition instances
	// (policies and partitions sweep by name instead).
	Base sim.Config `json:"-"`
	// Axes declares what varies.
	Axes Axes `json:"axes"`
	// NoCache skips result-cache lookups; computed points are still
	// stored for later sweeps.
	NoCache bool `json:"no_cache,omitempty"`
}

// Axis names, in canonical grid order (outermost first). Pivot and
// geomean output follows this order.
const (
	AxisBenchmark = "benchmark"
	AxisSecure    = "secure"
	AxisLLC       = "llc"
	AxisMeta      = "meta"
	AxisContent   = "content"
	AxisPolicy    = "policy"
	AxisPartition = "partition"
	AxisPartial   = "partial_writes"
)

// AxisNames lists every axis in canonical grid order.
func AxisNames() []string {
	return []string{AxisBenchmark, AxisSecure, AxisLLC, AxisMeta,
		AxisContent, AxisPolicy, AxisPartition, AxisPartial}
}

// Point is one grid coordinate with its materialized configuration.
// The Config is canonicalizable (policies and partitions stay names);
// Instantiate builds fresh policy/partition state per run.
type Point struct {
	// Index is the point's position in grid order.
	Index int `json:"index"`
	// Benchmark, Secure, LLCBytes, MetaBytes, Content, Policy,
	// Partition, and PartialWrites are the resolved coordinates.
	// LLCBytes and MetaBytes are 0 when the axis is absent and the
	// base leaves them defaulted; MetaBytes 0 under a present axis
	// means "no metadata cache".
	Benchmark     string `json:"benchmark"`
	Secure        bool   `json:"secure"`
	LLCBytes      int    `json:"llc_bytes,omitempty"`
	MetaBytes     int    `json:"meta_bytes,omitempty"`
	Content       string `json:"content,omitempty"`
	Policy        string `json:"policy,omitempty"`
	Partition     string `json:"partition,omitempty"`
	PartialWrites bool   `json:"partial_writes,omitempty"`

	// Config is the fully materialized simulation config (policy and
	// partition NOT instantiated — see Instantiate).
	Config sim.Config `json:"-"`
}

// Label renders the point's coordinate on the named axis, for tables
// and error messages.
func (p Point) Label(axis string) string {
	switch axis {
	case AxisBenchmark:
		return p.Benchmark
	case AxisSecure:
		if p.Secure {
			return "secure"
		}
		return "insecure"
	case AxisLLC:
		return SizeLabel(p.LLCBytes)
	case AxisMeta:
		if p.MetaBytes == 0 {
			return "no-meta"
		}
		return SizeLabel(p.MetaBytes)
	case AxisContent:
		return p.Content
	case AxisPolicy:
		return p.Policy
	case AxisPartition:
		return p.Partition
	case AxisPartial:
		if p.PartialWrites {
			return "partial"
		}
		return "full"
	}
	return "?"
}

// String names the point compactly for logs and errors.
func (p Point) String() string {
	parts := []string{p.Benchmark}
	if !p.Secure {
		parts = append(parts, "insecure")
	}
	if p.LLCBytes > 0 {
		parts = append(parts, "llc="+SizeLabel(p.LLCBytes))
	}
	if p.MetaBytes > 0 {
		parts = append(parts, "meta="+SizeLabel(p.MetaBytes))
	}
	if p.Content != "" {
		parts = append(parts, p.Content)
	}
	if p.Policy != "" && p.Policy != DefaultPolicy {
		parts = append(parts, p.Policy)
	}
	if p.Partition != "" && p.Partition != DefaultPartition {
		parts = append(parts, p.Partition)
	}
	if p.PartialWrites {
		parts = append(parts, "partial")
	}
	return strings.Join(parts, "/")
}

// SizeLabel prints a byte capacity the way the paper's axes do
// ("64KB", "2MB").
func SizeLabel(bytes int) string {
	switch {
	case bytes >= 1<<20 && bytes%(1<<20) == 0:
		return fmt.Sprintf("%dMB", bytes>>20)
	case bytes >= 1<<10:
		return fmt.Sprintf("%dKB", bytes>>10)
	default:
		return fmt.Sprintf("%dB", bytes)
	}
}

// Default policy and partition names: what an empty axis value
// normalizes to, and what keeps a point on the plain run-job cache
// key (see results.PointKeyFor).
const (
	DefaultPolicy    = "plru"
	DefaultPartition = "none"
)

// PolicyNames lists the replacement policies a sweep can name, the
// default first.
func PolicyNames() []string {
	return []string{"plru", "lru", "fifo", "random", "srrip", "brrip", "eva", "eva-pertype", "typepred"}
}

// NewPolicy builds a fresh replacement-policy instance for the given
// name ("" means the plru default, which returns nil — the metadata
// cache's own default; "random" is seeded 1, so its runs repeat).
// Policies are stateful, so every run must get its own instance; this
// is the only constructor Instantiate uses.
func NewPolicy(name string) (cache.Policy, error) {
	switch name {
	case "", DefaultPolicy:
		return nil, nil
	case "lru":
		return policy.NewLRU(), nil
	case "fifo":
		return policy.NewFIFO(), nil
	case "random":
		return policy.NewRandom(1), nil
	case "srrip":
		return policy.NewSRRIP(), nil
	case "brrip":
		return policy.NewBRRIP(), nil
	case "eva":
		return eva.New(eva.Config{}), nil
	case "eva-pertype":
		return eva.NewPerType(eva.Config{}), nil
	case "typepred":
		return typepred.New(), nil
	}
	return nil, fmt.Errorf("sweep: unknown policy %q (want one of %v)", name, PolicyNames())
}

// NewPartition builds a fresh partition-scheme instance for the given
// name: "" or "none" (nil — unpartitioned), "static:N" (N counter
// ways), or "dynamic" (set-dueling with the fig7 2/6 duel splits).
func NewPartition(name string) (partition.Scheme, error) {
	switch {
	case name == "" || name == DefaultPartition:
		return nil, nil
	case name == "dynamic":
		return partition.NewDynamic(2, 6), nil
	case strings.HasPrefix(name, "static:"):
		n, err := strconv.Atoi(strings.TrimPrefix(name, "static:"))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("sweep: bad static partition %q (want static:N with N >= 1)", name)
		}
		return partition.NewStatic(n), nil
	}
	return nil, fmt.Errorf("sweep: unknown partition %q (want none, static:N, or dynamic)", name)
}

// normalizePolicy maps "" to the default name, validating the rest.
func normalizePolicy(name string) (string, error) {
	if name == "" {
		return DefaultPolicy, nil
	}
	if _, err := NewPolicy(name); err != nil {
		return "", err
	}
	return name, nil
}

// normalizePartition maps "" to "none", validating the rest.
func normalizePartition(name string) (string, error) {
	if name == "" {
		return DefaultPartition, nil
	}
	if _, err := NewPartition(name); err != nil {
		return "", err
	}
	return name, nil
}

// orDefault substitutes the single implicit point for an absent axis.
func orDefault[T any](axis []T, def T) []T {
	if len(axis) > 0 {
		return axis
	}
	return []T{def}
}

// Expand validates the spec and materializes the deterministic config
// grid. Two calls on the same Spec yield identical points in
// identical order.
func (s Spec) Expand() ([]Point, error) {
	base := s.Base
	switch {
	case base.Workload != nil:
		return nil, fmt.Errorf("sweep: base config must name a Benchmark, not carry a Workload")
	case base.WorkloadSpec != nil:
		return nil, fmt.Errorf("sweep: sweep workload specs via Axes.WorkloadSpecs, not Base")
	case base.TracePath != "":
		return nil, fmt.Errorf("sweep: base config must not set a TracePath (trace files are machine-local)")
	case base.Tap != nil || base.Progress != nil:
		return nil, fmt.Errorf("sweep: base config must not carry a Tap or Progress")
	case base.Meta != nil && (base.Meta.Policy != nil || base.Meta.Partition != nil):
		return nil, fmt.Errorf("sweep: sweep policies and partitions by name (Axes), not by instance")
	}

	// The workload axis: named benchmarks first, then spec-driven
	// entries, all on one outermost dimension.
	benches := s.Axes.Benchmarks
	if len(benches) == 0 && len(s.Axes.WorkloadSpecs) == 0 {
		if base.Benchmark == "" {
			return nil, fmt.Errorf("sweep: no benchmark axis and no base benchmark")
		}
		benches = []string{base.Benchmark}
	}
	for _, b := range benches {
		if _, err := workload.New(b); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
	}
	type workloadEntry struct {
		bench string
		ws    *spec.Spec
	}
	entries := make([]workloadEntry, 0, len(benches)+len(s.Axes.WorkloadSpecs))
	seen := make(map[string]bool, cap(entries))
	for _, b := range benches {
		if seen[b] {
			return nil, fmt.Errorf("sweep: duplicate workload %q on the benchmark axis", b)
		}
		seen[b] = true
		entries = append(entries, workloadEntry{bench: b})
	}
	for _, ws := range s.Axes.WorkloadSpecs {
		if ws == nil {
			return nil, fmt.Errorf("sweep: nil workload spec on the workload axis")
		}
		if err := ws.Validate(); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		if seen[ws.Name] {
			return nil, fmt.Errorf("sweep: duplicate workload %q on the benchmark axis", ws.Name)
		}
		seen[ws.Name] = true
		entries = append(entries, workloadEntry{bench: ws.Name, ws: ws.Canonicalize()})
	}

	llcs, err := s.Axes.LLC.expand()
	if err != nil {
		return nil, fmt.Errorf("sweep: llc axis: %w", err)
	}
	metas, err := s.Axes.Meta.expand()
	if err != nil {
		return nil, fmt.Errorf("sweep: meta axis: %w", err)
	}
	for _, m := range llcs {
		if m <= 0 {
			return nil, fmt.Errorf("sweep: llc axis point %d must be positive", m)
		}
	}

	contents := s.Axes.Contents
	for _, c := range contents {
		if _, err := metacache.ParseContent(c); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
	}
	policies := make([]string, 0, len(s.Axes.Policies))
	for _, p := range s.Axes.Policies {
		name, err := normalizePolicy(p)
		if err != nil {
			return nil, err
		}
		policies = append(policies, name)
	}
	partitions := make([]string, 0, len(s.Axes.Partitions))
	for _, p := range s.Axes.Partitions {
		name, err := normalizePartition(p)
		if err != nil {
			return nil, err
		}
		partitions = append(partitions, name)
	}

	// Axes that tune the metadata cache need one to exist somewhere.
	hasMeta := base.Meta != nil || len(metas) > 0
	if !hasMeta {
		for axis, present := range map[string]bool{
			AxisContent:   len(contents) > 0,
			AxisPolicy:    len(policies) > 0,
			AxisPartition: len(partitions) > 0,
			AxisPartial:   len(s.Axes.PartialWrites) > 0,
		} {
			if present {
				return nil, fmt.Errorf("sweep: %s axis requires a metadata cache (set a meta axis or Base.Meta)", axis)
			}
		}
	}
	if base.Meta != nil && base.Meta.Size <= 0 && len(metas) == 0 {
		return nil, fmt.Errorf("sweep: Base.Meta.Size must be positive without a meta axis")
	}

	secures := orDefault(s.Axes.Secure, base.Secure)
	llcPts := orDefault(llcs, 0)
	metaPts := orDefault(metas, -1) // -1 = inherit base.Meta
	contentPts := orDefault(contents, "")
	policyPts := orDefault(policies, "")
	partitionPts := orDefault(partitions, "")
	partialPts := orDefault(s.Axes.PartialWrites, base.Meta != nil && base.Meta.PartialWrites)

	var points []Point
	for _, entry := range entries {
		for _, secure := range secures {
			for _, llc := range llcPts {
				for _, meta := range metaPts {
					for _, content := range contentPts {
						for _, pol := range policyPts {
							for _, part := range partitionPts {
								for _, partial := range partialPts {
									p, err := s.materialize(entry.bench, entry.ws, secure, llc, meta, content, pol, part, partial)
									if err != nil {
										return nil, err
									}
									p.Index = len(points)
									points = append(points, p)
								}
							}
						}
					}
				}
			}
		}
	}
	return points, nil
}

// materialize builds one point's coordinates and simulation config
// from the base plus axis values.
func (s Spec) materialize(bench string, ws *spec.Spec, secure bool, llc, meta int, content, pol, part string, partial bool) (Point, error) {
	cfg := s.Base
	cfg.Benchmark = bench
	cfg.WorkloadSpec = ws
	cfg.Secure = secure
	if llc > 0 {
		if cfg.Hierarchy == (hierarchy.Config{}) {
			cfg.Hierarchy = hierarchy.Default()
		}
		cfg.Hierarchy.L3Size = llc
	}
	switch {
	case meta == 0:
		cfg.Meta = nil
	case meta > 0:
		var mc metacache.Config
		if s.Base.Meta != nil {
			mc = *s.Base.Meta
		}
		mc.Size = meta
		cfg.Meta = &mc
	case cfg.Meta != nil:
		mc := *cfg.Meta
		cfg.Meta = &mc
	}
	if cfg.Meta != nil {
		if content != "" {
			cp, err := metacache.ParseContent(content)
			if err != nil {
				return Point{}, fmt.Errorf("sweep: %w", err)
			}
			cfg.Meta.Content = cp
		}
		if len(s.Axes.PartialWrites) > 0 {
			cfg.Meta.PartialWrites = partial
		}
	}

	p := Point{
		Benchmark:     bench,
		Secure:        secure,
		LLCBytes:      cfg.Hierarchy.L3Size,
		Content:       content,
		Policy:        pol,
		Partition:     part,
		PartialWrites: cfg.Meta != nil && cfg.Meta.PartialWrites,
		Config:        cfg,
	}
	if cfg.Meta != nil {
		p.MetaBytes = cfg.Meta.Size
	}
	return p, nil
}
