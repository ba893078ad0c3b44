package sim

import (
	"fmt"
	"time"

	"github.com/maps-sim/mapsim/internal/stats"
)

// SuiteResult aggregates one configuration across a benchmark suite.
type SuiteResult struct {
	// PerBench maps benchmark name to its result.
	PerBench map[string]*Result `json:"per_bench"`
	// Order preserves the requested benchmark order for reports.
	Order []string `json:"order"`

	// Geomeans across the suite.
	GeomeanLLCMPKI  float64 `json:"geomean_llc_mpki"`
	GeomeanMetaMPKI float64 `json:"geomean_meta_mpki"`
	GeomeanIPC      float64 `json:"geomean_ipc"`
	GeomeanED2      float64 `json:"geomean_ed2"`
	// GeomeanMemAccesses is the geometric mean of per-benchmark DRAM
	// accesses (reads + writes).
	GeomeanMemAccesses float64 `json:"geomean_mem_accesses"`

	// Wall is the suite's host wall-clock time (not simulated
	// cycles); it serializes as nanoseconds.
	Wall time.Duration `json:"wall_ns"`
}

// NewSuiteResult reduces one configuration's per-benchmark results to
// a SuiteResult: results[i] is benchmark order[i]'s, and the geomeans
// are taken over them. A suite runs as a sweep over the benchmark axis
// (mapsim.RunSuite), so its callers reduce the sweep's points through
// sweep.Result.Suite.
func NewSuiteResult(order []string, results []*Result, wall time.Duration) *SuiteResult {
	s := &SuiteResult{PerBench: make(map[string]*Result, len(order)), Order: order, Wall: wall}
	for i, b := range order {
		s.PerBench[b] = results[i]
	}
	s.computeGeomeans(order)
	return s
}

// computeGeomeans fills the suite-level geometric means from the
// per-benchmark results.
func (s *SuiteResult) computeGeomeans(benchmarks []string) {
	var llc, meta, ipc, ed2, mem []float64
	for _, b := range benchmarks {
		r := s.PerBench[b]
		if r == nil {
			continue
		}
		llc = append(llc, r.LLCMPKI)
		meta = append(meta, r.MetaMPKI)
		ipc = append(ipc, r.IPC)
		ed2 = append(ed2, r.ED2)
		mem = append(mem, float64(r.DRAM.Accesses()))
	}
	s.GeomeanLLCMPKI = GeomeanPositive(llc)
	s.GeomeanMetaMPKI = GeomeanPositive(meta)
	s.GeomeanIPC = GeomeanPositive(ipc)
	s.GeomeanED2 = GeomeanPositive(ed2)
	s.GeomeanMemAccesses = GeomeanPositive(mem)
}

// GeomeanPositive is stats.Geomean restricted to the strictly positive
// entries. A zero per-benchmark value — MetaMPKI in an insecure suite,
// LLCMPKI for a cache-resident workload — would otherwise be clamped
// to Geomean's 1e-12 log floor and drag the whole mean to nonsense.
// With no positive entries the mean is 0. The suite geomeans and the
// sweep per-axis aggregates share these semantics.
func GeomeanPositive(vals []float64) float64 {
	pos := make([]float64, 0, len(vals))
	for _, v := range vals {
		if v > 0 {
			pos = append(pos, v)
		}
	}
	if len(pos) == 0 {
		return 0
	}
	return stats.Geomean(pos)
}

// Render prints a per-benchmark summary table with the geomean row.
func (s *SuiteResult) Render() string {
	var t stats.Table
	t.AddRow("benchmark", "LLC MPKI", "meta MPKI", "IPC", "mem accesses")
	for _, b := range s.Order {
		r := s.PerBench[b]
		if r == nil {
			// A partial result — e.g. a JSON-decoded SuiteResult from
			// mapsd that is missing a benchmark — renders a placeholder
			// row instead of panicking, matching computeGeomeans's nil
			// guard.
			t.AddRow(b, "-", "-", "-", "-")
			continue
		}
		t.AddRow(b,
			fmt.Sprintf("%.2f", r.LLCMPKI),
			fmt.Sprintf("%.2f", r.MetaMPKI),
			fmt.Sprintf("%.3f", r.IPC),
			fmt.Sprintf("%d", r.DRAM.Accesses()))
	}
	t.AddRow("geomean",
		fmt.Sprintf("%.2f", s.GeomeanLLCMPKI),
		fmt.Sprintf("%.2f", s.GeomeanMetaMPKI),
		fmt.Sprintf("%.3f", s.GeomeanIPC),
		fmt.Sprintf("%.0f", s.GeomeanMemAccesses))
	return t.String()
}
