package experiments

import (
	"fmt"
	"strings"

	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/stats"
	"github.com/maps-sim/mapsim/internal/workload"
)

// This file holds the ablations DESIGN.md §5 promises beyond the
// paper's figures: the partial-write optimization (§IV-E), the full
// content-policy matrix ("experiments with other metadata cache
// configurations produce trends similar to those in Figure 1"), and
// the PI-vs-SGX counter-organization comparison the paper only
// discusses in prose.

// AblatePartialResult compares runs with and without partial writes.
type AblatePartialResult struct {
	Benchmarks []string
	// With/Without[benchmark] hold (hash memory reads per kilo
	// instruction, metadata MPKI) pairs.
	HashReadsPKI map[string][2]float64 // [without, with]
	MetaMPKI     map[string][2]float64
	PartialFills map[string]uint64 // fill reads paid at eviction (with)
}

// AblatePartial measures §IV-E's partial-write mechanism: write
// misses on hash/tree blocks insert placeholders instead of fetching
// the block, saving a memory read whenever the block fills before
// eviction. The paper predicts modest benefits concentrated in
// write-heavy workloads.
func AblatePartial(opt Options) (*AblatePartialResult, error) { return runOne(opt, ablatePartial) }

// ablatePartial plans the ablation: each benchmark with partial
// writes off and on.
func ablatePartial(opt Options) (*AblatePartialResult, *plan, error) {
	benches := opt.benchmarks([]string{"fft", "lbm", "leslie3d", "canneal"})
	p := &plan{}
	runs := map[string][2]*job{} // [without, with]
	for _, b := range benches {
		var pair [2]*job
		for i, partial := range []bool{false, true} {
			pair[i] = p.run(sim.Config{
				Benchmark:    b,
				Instructions: opt.Instructions,
				Secure:       true,
				Speculation:  true,
				Meta:         &metacache.Config{Size: 64 << 10, PartialWrites: partial},
			})
		}
		runs[b] = pair
	}

	res := &AblatePartialResult{
		Benchmarks:   benches,
		HashReadsPKI: map[string][2]float64{},
		MetaMPKI:     map[string][2]float64{},
		PartialFills: map[string]uint64{},
	}
	p.finish = func() (*plan, error) {
		for _, b := range benches {
			without, with := runs[b][0].res, runs[b][1].res
			kiloW := float64(without.Instructions) / 1000
			kiloP := float64(with.Instructions) / 1000
			res.HashReadsPKI[b] = [2]float64{
				float64(without.Mem.HashReads) / kiloW,
				float64(with.Mem.HashReads) / kiloP,
			}
			res.MetaMPKI[b] = [2]float64{without.MetaMPKI, with.MetaMPKI}
		}
		return nil, nil
	}
	return res, p, nil
}

// Render prints the ablation.
func (r *AblatePartialResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Ablation: partial writes for hash/tree blocks (64KB metadata cache)\n\n")
	var t stats.Table
	t.AddRow("benchmark", "hash reads/KI (off)", "hash reads/KI (on)", "saved", "MPKI off", "MPKI on")
	for _, b := range r.Benchmarks {
		h := r.HashReadsPKI[b]
		m := r.MetaMPKI[b]
		saved := "-"
		if h[0] > 0 {
			saved = fmt.Sprintf("%.0f%%", 100*(h[0]-h[1])/h[0])
		}
		t.AddRow(b,
			fmt.Sprintf("%.2f", h[0]), fmt.Sprintf("%.2f", h[1]), saved,
			fmt.Sprintf("%.1f", m[0]), fmt.Sprintf("%.1f", m[1]))
	}
	sb.WriteString(t.String())
	sb.WriteString("\n(the benefit is one saved memory read per hash block that fills before eviction — modest, as the paper predicts)\n")
	return sb.String()
}

// ContentMatrixResult holds metadata memory traffic for all seven
// content-policy combinations.
type ContentMatrixResult struct {
	Benchmarks []string
	Contents   []metacache.ContentPolicy
	// MemPKI[benchmark][content] is metadata memory accesses per
	// kilo-instruction; MPKI[benchmark][content] is cache-miss MPKI.
	MemPKI map[string]map[metacache.ContentPolicy]float64
	MPKI   map[string]map[metacache.ContentPolicy]float64
}

// ContentMatrixContents lists every non-empty content combination.
var ContentMatrixContents = []metacache.ContentPolicy{
	metacache.CountersOnly,
	metacache.HashesOnly,
	metacache.TreeOnly,
	metacache.CountersHashes,
	metacache.CountersTree,
	metacache.HashesTree,
	metacache.AllTypes,
}

// ContentMatrix extends Figure 1 to the full set of content policies
// the paper says it also evaluated, at one cache size.
func ContentMatrix(opt Options) (*ContentMatrixResult, error) { return runOne(opt, contentMatrix) }

// contentMatrix plans one run per benchmark and content policy.
func contentMatrix(opt Options) (*ContentMatrixResult, *plan, error) {
	benches := opt.benchmarks([]string{"canneal", "libquantum", "fft"})
	res := &ContentMatrixResult{
		Benchmarks: benches,
		Contents:   ContentMatrixContents,
		MemPKI:     map[string]map[metacache.ContentPolicy]float64{},
		MPKI:       map[string]map[metacache.ContentPolicy]float64{},
	}
	p := &plan{}
	runs := map[string]map[metacache.ContentPolicy]*job{}
	for _, b := range benches {
		runs[b] = map[metacache.ContentPolicy]*job{}
		for _, c := range ContentMatrixContents {
			runs[b][c] = p.run(sim.Config{
				Benchmark:    b,
				Instructions: opt.Instructions,
				Secure:       true,
				Speculation:  true,
				Meta:         &metacache.Config{Size: 128 << 10, Content: c},
			})
		}
	}
	p.finish = func() (*plan, error) {
		for b, byContent := range runs {
			res.MemPKI[b] = map[metacache.ContentPolicy]float64{}
			res.MPKI[b] = map[metacache.ContentPolicy]float64{}
			for c, j := range byContent {
				res.MemPKI[b][c] = j.res.MetaMemPKI
				res.MPKI[b][c] = j.res.MetaMPKI
			}
		}
		return nil, nil
	}
	return res, p, nil
}

// Render prints the matrix.
func (r *ContentMatrixResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Extension: full content-policy matrix (128KB metadata cache, metadata mem accesses/KI)\n\n")
	var t stats.Table
	header := []string{"contents"}
	header = append(header, r.Benchmarks...)
	t.AddRow(header...)
	for _, c := range r.Contents {
		row := []string{c.String()}
		for _, b := range r.Benchmarks {
			row = append(row, fmt.Sprintf("%.1f", r.MemPKI[b][c]))
		}
		t.AddRow(row...)
	}
	sb.WriteString(t.String())
	sb.WriteString("\n(all-types wins or sits near the winner everywhere; when counters and hashes\n" +
		" are uncacheable — canneal — the tree acts as the safety net the paper describes)\n")
	return sb.String()
}

// OrgCompareResult contrasts the PoisonIvy split-counter organization
// with SGX monolithic counters.
type OrgCompareResult struct {
	Benchmarks []string
	// Per benchmark: [PI, SGX] values.
	CounterMPKI map[string][2]float64
	MetaMemPKI  map[string][2]float64
	TreeLevels  [2]int
}

// OrgCompare quantifies the prose claim of §IV: SGX's 8 B per-block
// counters make counter blocks behave like hash blocks (8x less
// coverage), increasing counter traffic and deepening the tree.
func OrgCompare(opt Options) (*OrgCompareResult, error) { return runOne(opt, orgCompare) }

// orgCompare plans each benchmark under both counter organizations.
func orgCompare(opt Options) (*OrgCompareResult, *plan, error) {
	benches := opt.benchmarks([]string{"libquantum", "canneal", "leslie3d"})
	p := &plan{}
	runs := map[string][2]*job{} // [PI, SGX]
	for _, b := range benches {
		var pair [2]*job
		for i, org := range []memlayout.Organization{memlayout.PoisonIvy, memlayout.SGX} {
			pair[i] = p.run(sim.Config{
				Benchmark:    b,
				Instructions: opt.Instructions,
				Secure:       true,
				Speculation:  true,
				Org:          org,
				Meta:         &metacache.Config{Size: 64 << 10},
			})
		}
		runs[b] = pair
	}
	res := &OrgCompareResult{
		Benchmarks:  benches,
		CounterMPKI: map[string][2]float64{},
		MetaMemPKI:  map[string][2]float64{},
	}
	// Tree depth for a representative footprint.
	g, err := workload.New(benches[0])
	if err != nil {
		return nil, nil, err
	}
	fp := g.Footprint()
	res.TreeLevels[0] = memlayout.MustNew(memlayout.PoisonIvy, fp).TreeLevels()
	res.TreeLevels[1] = memlayout.MustNew(memlayout.SGX, fp).TreeLevels()
	p.finish = func() (*plan, error) {
		for _, b := range benches {
			pi, sgx := runs[b][0].res, runs[b][1].res
			res.CounterMPKI[b] = [2]float64{
				pi.Meta[memlayout.KindCounter].MPKI,
				sgx.Meta[memlayout.KindCounter].MPKI,
			}
			res.MetaMemPKI[b] = [2]float64{pi.MetaMemPKI, sgx.MetaMemPKI}
		}
		return nil, nil
	}
	return res, p, nil
}

// Render prints the organization comparison.
func (r *OrgCompareResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Extension: PoisonIvy split counters vs SGX monolithic counters (64KB metadata cache)\n\n")
	var t stats.Table
	t.AddRow("benchmark", "ctr MPKI (PI)", "ctr MPKI (SGX)", "meta mem/KI (PI)", "meta mem/KI (SGX)")
	for _, b := range r.Benchmarks {
		c := r.CounterMPKI[b]
		m := r.MetaMemPKI[b]
		t.AddRow(b,
			fmt.Sprintf("%.2f", c[0]), fmt.Sprintf("%.2f", c[1]),
			fmt.Sprintf("%.1f", m[0]), fmt.Sprintf("%.1f", m[1]))
	}
	sb.WriteString(t.String())
	fmt.Fprintf(&sb, "\n(tree levels for %s-sized footprint: PI %d, SGX %d — split counters cover 8x more data per block)\n",
		r.Benchmarks[0], r.TreeLevels[0], r.TreeLevels[1])
	return sb.String()
}
