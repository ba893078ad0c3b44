package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/maps-sim/mapsim/internal/cliutil"
	"github.com/maps-sim/mapsim/internal/dram"
	"github.com/maps-sim/mapsim/internal/hierarchy"
	"github.com/maps-sim/mapsim/internal/jobs"
	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/sweep"
	wspec "github.com/maps-sim/mapsim/internal/workload/spec"
)

// TypeRun is the one job type POST /v1/jobs accepts: one config, one
// sim.Result. A suite runs as a sweep over the benchmark axis
// (POST /v1/sweeps).
const TypeRun = "run"

// ByteSize is an int byte count that also unmarshals from strings
// like "64KB" or "1MB", so curl requests read like the CLI flags.
type ByteSize int

// UnmarshalJSON accepts either a JSON number (bytes) or a size
// string understood by cliutil.ParseSize.
func (b *ByteSize) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		n, err := cliutil.ParseSize(s)
		if err != nil {
			return err
		}
		*b = ByteSize(n)
		return nil
	}
	var n int
	if err := json.Unmarshal(data, &n); err != nil {
		return err
	}
	*b = ByteSize(n)
	return nil
}

// MetaSpec is the wire form of metacache.Config. Replacement policy
// and partitioning travel as names, not instances: the server
// instantiates fresh stateful policy/partition objects per run (via
// sweep.Instantiate, the same path grid points take), and the names
// feed results.PointKeyFor so remotely executed sweep points land on
// exactly the same content address a local run would.
type MetaSpec struct {
	Size ByteSize `json:"size"`
	// Ways is the associativity; zero takes Table I's 8, the default
	// sim.Config fills for every entry point.
	Ways int `json:"ways,omitempty"`
	// Content names the content policy ("counters",
	// "counters+hashes", "all", ...); empty means all.
	Content       string `json:"content,omitempty"`
	PartialWrites bool   `json:"partial_writes,omitempty"`
	// Policy names the replacement policy ("plru", "lru", "srrip",
	// "eva", ...); empty means the pseudo-LRU default. Run jobs only —
	// a sweep names policies on its axes.
	Policy string `json:"policy,omitempty"`
	// Partition names the way-partition scheme; empty means none.
	// Run jobs only.
	Partition string `json:"partition,omitempty"`
}

// HierarchySpec is the wire form of hierarchy.Config: per-level cache
// sizes and associativities. Omitting the whole block keeps Table I's
// defaults; a partially filled block is taken literally (the
// simulator rejects impossible shapes at run time), so senders should
// fill every level — which is what SpecFromSim does.
type HierarchySpec struct {
	L1Size ByteSize `json:"l1_size,omitempty"`
	L1Ways int      `json:"l1_ways,omitempty"`
	L2Size ByteSize `json:"l2_size,omitempty"`
	L2Ways int      `json:"l2_ways,omitempty"`
	L3Size ByteSize `json:"l3_size,omitempty"`
	L3Ways int      `json:"l3_ways,omitempty"`
}

// ConfigSpec is the wire form of sim.Config: the JSON-expressible
// subset (no Workload or Tap — exactly the fields sim.Config.Canonical
// admits, with policy/partition as names). Zero fields take the
// simulator's defaults, except Secure which defaults to true — a
// secure-memory service that silently simulated insecure baselines
// would be a trap.
type ConfigSpec struct {
	Benchmark string `json:"benchmark"`
	// Workload, when set, is a declarative multi-client workload spec
	// replacing the named benchmark; Benchmark may be empty or must
	// equal the spec's name. Specs are pure data, so spec-driven jobs
	// canonicalize and dedupe exactly like named-benchmark jobs.
	Workload          *wspec.Spec    `json:"workload,omitempty"`
	Instructions      uint64         `json:"instructions,omitempty"`
	Warmup            uint64         `json:"warmup,omitempty"`
	Seed              int64          `json:"seed,omitempty"`
	Secure            *bool          `json:"secure,omitempty"`
	Org               string         `json:"org,omitempty"` // "pi" (default) or "sgx"
	Speculation       bool           `json:"speculation,omitempty"`
	SpeculationWindow uint64         `json:"speculation_window,omitempty"`
	Hierarchy         *HierarchySpec `json:"hierarchy,omitempty"`
	Meta              *MetaSpec      `json:"meta,omitempty"`
	BaseCPI           float64        `json:"base_cpi,omitempty"`
}

// ToSim translates the wire config into a sim.Config, leaving zero
// fields for sim to default. The replacement-policy and partition
// names have no sim.Config field; Point carries them.
func (c ConfigSpec) ToSim() (sim.Config, error) {
	cfg := sim.Config{
		Benchmark:         c.Benchmark,
		WorkloadSpec:      c.Workload,
		Instructions:      c.Instructions,
		Warmup:            c.Warmup,
		Seed:              c.Seed,
		Secure:            true,
		Speculation:       c.Speculation,
		SpeculationWindow: c.SpeculationWindow,
		BaseCPI:           c.BaseCPI,
	}
	if c.Secure != nil {
		cfg.Secure = *c.Secure
	}
	if c.Hierarchy != nil {
		cfg.Hierarchy = hierarchy.Config{
			L1Size: int(c.Hierarchy.L1Size), L1Ways: c.Hierarchy.L1Ways,
			L2Size: int(c.Hierarchy.L2Size), L2Ways: c.Hierarchy.L2Ways,
			L3Size: int(c.Hierarchy.L3Size), L3Ways: c.Hierarchy.L3Ways,
		}
	}
	switch strings.ToLower(strings.TrimSpace(c.Org)) {
	case "", "pi", "poisonivy":
		cfg.Org = memlayout.PoisonIvy
	case "sgx":
		cfg.Org = memlayout.SGX
	default:
		return sim.Config{}, fmt.Errorf("unknown org %q (want pi or sgx)", c.Org)
	}
	if c.Meta != nil {
		if c.Meta.Size <= 0 {
			return sim.Config{}, fmt.Errorf("meta.size must be positive")
		}
		content, err := metacache.ParseContent(c.Meta.Content)
		if err != nil {
			return sim.Config{}, err
		}
		cfg.Meta = &metacache.Config{
			Size:          int(c.Meta.Size),
			Ways:          c.Meta.Ways,
			Content:       content,
			PartialWrites: c.Meta.PartialWrites,
		}
	}
	return cfg, nil
}

// Point returns the run the wire config describes as a validated
// sweep point: ToSim's config plus pointNames' replacement-policy and
// partition names. Every entry point that runs a ConfigSpec builds it
// here, then keys it with sweep.PointKey and runs it through
// sweep.Instantiate.
func (c ConfigSpec) Point() (sweep.Point, error) {
	cfg, err := c.ToSim()
	if err != nil {
		return sweep.Point{}, err
	}
	pol, part, err := c.pointNames()
	if err != nil {
		return sweep.Point{}, err
	}
	return sweep.Point{Benchmark: cfg.Benchmark, Secure: cfg.Secure, Policy: pol, Partition: part, Config: cfg}, nil
}

// pointNames extracts and validates the config's replacement-policy
// and partition names, normalized so the defaults map to "" — sharing
// content addresses with plain default-policy jobs, exactly as
// sweep.CacheNames does for grid points.
func (c ConfigSpec) pointNames() (string, string, error) {
	if c.Meta == nil {
		return "", "", nil
	}
	pol := strings.ToLower(strings.TrimSpace(c.Meta.Policy))
	part := strings.ToLower(strings.TrimSpace(c.Meta.Partition))
	if err := sweep.CheckPolicy(pol); err != nil {
		return "", "", err
	}
	if _, err := sweep.NewPartition(part); err != nil {
		return "", "", err
	}
	if pol == sweep.DefaultPolicy {
		pol = ""
	}
	if part == sweep.DefaultPartition {
		part = ""
	}
	return pol, part, nil
}

// SpecFromSim converts a materialized simulation config back to its
// wire form — the inverse of ConfigSpec.ToSim — so a coordinator can
// dispatch sweep grid points to remote workers. The policy and
// partition names (a point's, already normalized or not) ride in
// Meta. Configs carrying state or fields the wire cannot express
// (Workload, Tap, custom DRAM timing, custom hit latencies) are
// rejected: a remote worker would silently simulate something else.
func SpecFromSim(cfg sim.Config, policy, partition string) (ConfigSpec, error) {
	switch {
	case cfg.Workload != nil:
		return ConfigSpec{}, errors.New("config with a caller-supplied Workload is not wire-expressible")
	case cfg.TracePath != "":
		return ConfigSpec{}, errors.New("config with a TracePath is not wire-expressible (trace files are machine-local)")
	case cfg.Tap != nil:
		return ConfigSpec{}, errors.New("config with a Tap is not wire-expressible")
	case cfg.DRAM != (dram.Config{}):
		return ConfigSpec{}, errors.New("config with custom DRAM timing is not wire-expressible")
	case cfg.L2HitLatency != 0 || cfg.L3HitLatency != 0:
		return ConfigSpec{}, errors.New("config with custom hit latencies is not wire-expressible")
	}
	secure := cfg.Secure
	spec := ConfigSpec{
		Benchmark:         cfg.Benchmark,
		Workload:          cfg.WorkloadSpec,
		Instructions:      cfg.Instructions,
		Warmup:            cfg.Warmup,
		Seed:              cfg.Seed,
		Secure:            &secure,
		Speculation:       cfg.Speculation,
		SpeculationWindow: cfg.SpeculationWindow,
		BaseCPI:           cfg.BaseCPI,
	}
	switch cfg.Org {
	case memlayout.PoisonIvy:
		spec.Org = "pi"
	case memlayout.SGX:
		spec.Org = "sgx"
	default:
		return ConfigSpec{}, fmt.Errorf("unknown organization %v is not wire-expressible", cfg.Org)
	}
	h := cfg.Hierarchy
	h.DisableFastPath = false // erased in canonicalization, carries no identity
	if h != (hierarchy.Config{}) {
		spec.Hierarchy = &HierarchySpec{
			L1Size: ByteSize(h.L1Size), L1Ways: h.L1Ways,
			L2Size: ByteSize(h.L2Size), L2Ways: h.L2Ways,
			L3Size: ByteSize(h.L3Size), L3Ways: h.L3Ways,
		}
	}
	if cfg.Meta != nil {
		if cfg.Meta.Policy != nil || cfg.Meta.Partition != nil {
			return ConfigSpec{}, errors.New("config with a stateful Meta.Policy or Meta.Partition is not wire-expressible (send names instead)")
		}
		content := ""
		if cfg.Meta.Content != 0 {
			content = cfg.Meta.Content.String()
			if _, err := metacache.ParseContent(content); err != nil {
				return ConfigSpec{}, fmt.Errorf("content policy %v is not wire-expressible", cfg.Meta.Content)
			}
		}
		spec.Meta = &MetaSpec{
			Size:          ByteSize(cfg.Meta.Size),
			Ways:          cfg.Meta.Ways,
			Content:       content,
			PartialWrites: cfg.Meta.PartialWrites,
			Policy:        policy,
			Partition:     partition,
		}
	} else if policy != "" || partition != "" {
		return ConfigSpec{}, errors.New("policy/partition names require a metadata cache")
	}
	return spec, nil
}

// JobRequest is the body of POST /v1/jobs.
type JobRequest struct {
	// Type must be run (TypeRun) or empty, which means run.
	Type   string     `json:"type,omitempty"`
	Config ConfigSpec `json:"config"`
	// TimeoutSec caps the job's runtime; zero means no deadline.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// NoCache skips the result-cache lookup (the computed result is
	// still stored), for forced re-runs.
	NoCache bool `json:"no_cache,omitempty"`
}

// JobStatus is the wire form of a job, returned by submit, status,
// and cancel endpoints.
type JobStatus struct {
	ID       string     `json:"id"`
	Type     string     `json:"type"`
	State    jobs.State `json:"state"`
	Key      string     `json:"key"`
	CacheHit bool       `json:"cache_hit"`
	// Deduped marks a submission that was coalesced onto an identical
	// job already queued or running (singleflight): the returned ID is
	// that existing job's, and polling it yields the shared result.
	Deduped  bool      `json:"deduped,omitempty"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
	Error    string    `json:"error,omitempty"`
}

// JobProgress is the body of GET /v1/jobs/{id}/progress: how far a
// running job's simulation has come, in retired instructions (warmup
// included). Counts are monotonically non-decreasing across polls of
// the same job. A cache-hit job never simulated, so its counts are
// zero while Fraction reports 1.
type JobProgress struct {
	ID    string     `json:"id"`
	State jobs.State `json:"state"`
	// InstructionsDone counts instructions retired so far.
	InstructionsDone uint64 `json:"instructions_done"`
	// InstructionsTotal is the expected total (0 until the run
	// publishes it).
	InstructionsTotal uint64 `json:"instructions_total"`
	// Fraction is done/total in [0,1]; forced to 1 once the job is
	// done.
	Fraction float64 `json:"fraction"`
	// ElapsedSec is time since the first instruction retired.
	ElapsedSec float64 `json:"elapsed_sec"`
	// RemainingSec linearly extrapolates time left; 0 when unknown.
	RemainingSec float64 `json:"remaining_sec"`
	// CacheHit marks jobs answered from the result cache.
	CacheHit bool `json:"cache_hit,omitempty"`
}

// JobResult is the body of GET /v1/jobs/{id}/result.
type JobResult struct {
	ID   string      `json:"id"`
	Type string      `json:"type"`
	Run  *sim.Result `json:"run,omitempty"`
}

// ErrorResponse is every non-2xx body.
type ErrorResponse struct {
	Error string `json:"error"`
}
