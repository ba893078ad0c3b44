package experiments

import (
	"fmt"
	"strings"

	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/reuse"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/stats"
	"github.com/maps-sim/mapsim/internal/sweep"
)

// TreeStretchResult quantifies §IV-C's caveat: "because of the
// interdependencies between counters and tree nodes, reuse distances
// for tree nodes might increase when a metadata cache is present" —
// cached counters absorb requests that would otherwise walk the tree,
// so the surviving tree requests are sparser and farther apart.
type TreeStretchResult struct {
	Benchmarks []string
	Thresholds []uint64
	// CDF[benchmark][config][i]: config is "nocache" or "cached".
	CDF map[string]map[string][]float64
	// TreeAccessesPKI[benchmark][config]: tree request rate.
	TreeAccessesPKI map[string]map[string]float64
}

// TreeStretch compares tree-node reuse distances with no metadata
// cache (Figure 3's methodology) against a 64 KB metadata cache.
func TreeStretch(opt Options) (*TreeStretchResult, error) { return runOne(opt, treeStretch) }

// treeStretch plans each benchmark with and without a metadata cache,
// each run feeding its own analyzer.
func treeStretch(opt Options) (*TreeStretchResult, *plan, error) {
	benches := opt.benchmarks([]string{"canneal", "libquantum"})
	res := &TreeStretchResult{
		Benchmarks:      benches,
		Thresholds:      ReuseThresholds,
		CDF:             map[string]map[string][]float64{},
		TreeAccessesPKI: map[string]map[string]float64{},
	}
	p := &plan{finish: func() (*plan, error) { return nil, nil }}
	for _, b := range benches {
		res.CDF[b] = map[string][]float64{}
		res.TreeAccessesPKI[b] = map[string]float64{}
		for _, cached := range []bool{false, true} {
			name := "nocache"
			cfg := sim.Config{
				Benchmark:    b,
				Instructions: opt.Instructions,
				Secure:       true,
				Speculation:  true,
			}
			if cached {
				name = "cached"
				cfg.Meta = &metacache.Config{Size: 64 << 10}
			}
			p.analyze(cfg, func(an *reuse.Analyzer, r *sim.Result) {
				res.CDF[b][name] = an.CDF(memlayout.KindTree, ReuseThresholds)
				res.TreeAccessesPKI[b][name] = float64(an.Accesses(memlayout.KindTree)) /
					(float64(r.Instructions) / 1000)
			})
		}
	}
	return res, p, nil
}

// Render prints the comparison.
func (r *TreeStretchResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Extension: tree-node reuse distances with and without a metadata cache\n\n")
	for _, b := range r.Benchmarks {
		fmt.Fprintf(&sb, "%s:\n", b)
		var t stats.Table
		header := []string{"config", "tree req/KI"}
		for _, th := range r.Thresholds {
			header = append(header, sweep.SizeLabel(int(th)))
		}
		t.AddRow(header...)
		for _, cfg := range []string{"nocache", "cached"} {
			row := []string{cfg, fmt.Sprintf("%.1f", r.TreeAccessesPKI[b][cfg])}
			for _, v := range r.CDF[b][cfg] {
				row = append(row, fmt.Sprintf("%.2f", v))
			}
			t.AddRow(row...)
		}
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	sb.WriteString("(the cache filters tree requests: fewer per kilo-instruction, and the\n survivors have longer reuse distances — the paper's SIV-C caveat)\n")
	return sb.String()
}
