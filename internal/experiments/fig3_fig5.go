package experiments

import (
	"fmt"
	"strings"

	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/reuse"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/stats"
	"github.com/maps-sim/mapsim/internal/sweep"
	"github.com/maps-sim/mapsim/internal/trace"
	"github.com/maps-sim/mapsim/internal/workload"
)

// ReuseThresholds are the byte distances at which the Figure 3/5 CDFs
// are sampled.
var ReuseThresholds = []uint64{
	512, 4 << 10, 32 << 10, 288 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20,
}

// WorkingSetMarker is the paper's 288 KB vertical line: nine metadata
// blocks per 4 KB page covering a 2 MB LLC.
const WorkingSetMarker = 288 << 10

// analyze adds a run of cfg whose metadata stream feeds a reuse
// analyzer, and hands reduce the analyzer and result once it lands.
// The analyzer is built at the run's first access and released after
// reduce, so it lives only while its run is in flight.
func (p *plan) analyze(cfg sim.Config, reduce func(*reuse.Analyzer, *sim.Result)) {
	var an *reuse.Analyzer
	cfg.Tap = func(a trace.Access) {
		if an == nil {
			an = reuse.NewAnalyzer(int(cfg.Instructions / 2))
		}
		an.Record(a.Addr, memlayout.Kind(a.Class), a.Write)
	}
	p.run(cfg).done = func(r *sim.Result) {
		if an == nil { // the run saw no metadata access
			an = reuse.NewAnalyzer(0)
		}
		reduce(an, r)
		an = nil // the Tap outlives the run; the analyzer need not
	}
}

// reusePlan plans one run per benchmark with no metadata cache,
// handing each run's analyzer to reduce as the run lands.
func reusePlan(benches []string, instructions uint64, reduce func(bench string, an *reuse.Analyzer)) *plan {
	p := &plan{finish: func() (*plan, error) { return nil, nil }}
	for _, b := range benches {
		p.analyze(sim.Config{
			Benchmark:    b,
			Instructions: instructions,
			Secure:       true,
			Speculation:  true,
		}, func(an *reuse.Analyzer, _ *sim.Result) { reduce(b, an) })
	}
	return p
}

// Fig3Result holds per-benchmark, per-kind reuse CDFs.
type Fig3Result struct {
	Benchmarks []string
	Thresholds []uint64
	// CDF[benchmark][kind][i] corresponds to Thresholds[i].
	CDF map[string]map[memlayout.Kind][]float64
}

// Fig3 reproduces Figure 3: the reuse-distance CDF of each metadata
// type under a 2 MB LLC with no metadata cache, for the six
// representative benchmarks.
func Fig3(opt Options) (*Fig3Result, error) { return runOne(opt, fig3) }

// fig3 plans Figure 3 over reusePlan's runs: each run's CDF per
// metadata type.
func fig3(opt Options) (*Fig3Result, *plan, error) {
	benches := opt.benchmarks(workload.Representative())
	res := &Fig3Result{Benchmarks: benches, Thresholds: ReuseThresholds, CDF: map[string]map[memlayout.Kind][]float64{}}
	return res, reusePlan(benches, opt.Instructions, func(b string, an *reuse.Analyzer) {
		m := map[memlayout.Kind][]float64{}
		for _, k := range memlayout.MetaKinds {
			m[k] = an.CDF(k, ReuseThresholds)
		}
		res.CDF[b] = m
	}), nil
}

// Render prints one CDF table per benchmark with the 288 KB marker
// column flagged.
func (r *Fig3Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 3: reuse-distance CDF by metadata type (2MB LLC, no metadata cache)\n\n")
	for _, b := range r.Benchmarks {
		fmt.Fprintf(&sb, "%s:\n", b)
		var t stats.Table
		header := []string{"type"}
		for _, th := range r.Thresholds {
			l := sweep.SizeLabel(int(th))
			if th == WorkingSetMarker {
				l += "*"
			}
			header = append(header, l)
		}
		t.AddRow(header...)
		for _, k := range memlayout.MetaKinds {
			row := []string{k.String()}
			cdf := r.CDF[b][k]
			for i := range r.Thresholds {
				if i >= len(cdf) {
					// A partial result (e.g. JSON-decoded with a missing
					// benchmark) renders placeholders, not a panic.
					row = append(row, "-")
					continue
				}
				row = append(row, fmt.Sprintf("%.2f", cdf[i]))
			}
			t.AddRow(row...)
		}
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	sb.WriteString("(* = 288KB: 9 metadata blocks per page x 2MB LLC working set)\n")
	return sb.String()
}

// Fig4Result holds the four-class reuse breakdown per benchmark.
type Fig4Result struct {
	Benchmarks []string
	// Classes[benchmark] are fractions of all metadata accesses in
	// {<=8KB, 8-16KB, 16-32KB, >32KB}.
	Classes map[string][4]float64
	// Bimodality[benchmark] = mass in the two extreme classes.
	Bimodality map[string]float64
}

// Fig4 reproduces Figure 4: classification of metadata accesses into
// the paper's four reuse-distance classes, showing the bimodal shape.
func Fig4(opt Options) (*Fig4Result, error) { return runOne(opt, fig4) }

// fig4 plans Figure 4 over reusePlan's runs.
func fig4(opt Options) (*Fig4Result, *plan, error) {
	benches := opt.benchmarks(workload.Names())
	res := &Fig4Result{Benchmarks: benches, Classes: map[string][4]float64{}, Bimodality: map[string]float64{}}
	return res, reusePlan(benches, opt.Instructions, func(b string, an *reuse.Analyzer) {
		var combined [4]float64
		var total float64
		for _, k := range memlayout.MetaKinds {
			classes := an.Classes(k)
			w := float64(an.Accesses(k))
			for i := range combined {
				combined[i] += classes[i] * w
			}
			total += w
		}
		if total > 0 {
			for i := range combined {
				combined[i] /= total
			}
		}
		res.Classes[b] = combined
		res.Bimodality[b] = combined[0] + combined[3]
	}), nil
}

// Render prints the class breakdown per benchmark.
func (r *Fig4Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 4: metadata accesses by reuse-distance class\n\n")
	var t stats.Table
	t.AddRow("benchmark", reuse.ClassLabels[0], reuse.ClassLabels[1], reuse.ClassLabels[2], reuse.ClassLabels[3], "bimodality")
	for _, b := range r.Benchmarks {
		c := r.Classes[b]
		t.AddRow(b,
			fmt.Sprintf("%.2f", c[0]), fmt.Sprintf("%.2f", c[1]),
			fmt.Sprintf("%.2f", c[2]), fmt.Sprintf("%.2f", c[3]),
			fmt.Sprintf("%.2f", r.Bimodality[b]))
	}
	sb.WriteString(t.String())
	return sb.String()
}

// Fig5Result holds reuse CDFs split by request-type transition and
// metadata type.
type Fig5Result struct {
	Benchmarks []string
	Thresholds []uint64
	// CDF[benchmark][kind][transition][i]
	CDF map[string]map[memlayout.Kind]map[reuse.Transition][]float64
	// Counts[benchmark][kind][transition]
	Counts map[string]map[memlayout.Kind]map[reuse.Transition]uint64
}

// Fig5 reproduces Figure 5: reuse-distance CDFs split by request and
// metadata type for the two most write-heavy memory-intensive
// benchmarks (fft at 20% writes, leslie3d at 5%).
func Fig5(opt Options) (*Fig5Result, error) { return runOne(opt, fig5) }

// fig5 plans Figure 5 over reusePlan's runs.
func fig5(opt Options) (*Fig5Result, *plan, error) {
	benches := opt.benchmarks([]string{"fft", "leslie3d"})
	res := &Fig5Result{
		Benchmarks: benches,
		Thresholds: ReuseThresholds,
		CDF:        map[string]map[memlayout.Kind]map[reuse.Transition][]float64{},
		Counts:     map[string]map[memlayout.Kind]map[reuse.Transition]uint64{},
	}
	return res, reusePlan(benches, opt.Instructions, func(b string, an *reuse.Analyzer) {
		kinds := map[memlayout.Kind]map[reuse.Transition][]float64{}
		counts := map[memlayout.Kind]map[reuse.Transition]uint64{}
		for _, k := range memlayout.MetaKinds {
			kinds[k] = map[reuse.Transition][]float64{}
			counts[k] = map[reuse.Transition]uint64{}
			for _, tr := range reuse.Transitions {
				kinds[k][tr] = an.TransitionCDF(k, tr, ReuseThresholds)
				counts[k][tr] = an.TransitionCount(k, tr)
			}
		}
		res.CDF[b] = kinds
		res.Counts[b] = counts
	}), nil
}

// Render prints per-benchmark tables of transition CDFs.
func (r *Fig5Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 5: reuse-distance CDF by request and metadata type\n\n")
	for _, b := range r.Benchmarks {
		fmt.Fprintf(&sb, "%s:\n", b)
		var t stats.Table
		header := []string{"type", "transition", "n"}
		for _, th := range r.Thresholds {
			header = append(header, sweep.SizeLabel(int(th)))
		}
		t.AddRow(header...)
		for _, k := range memlayout.MetaKinds {
			for _, tr := range reuse.Transitions {
				n := r.Counts[b][k][tr]
				if n == 0 {
					continue
				}
				row := []string{k.String(), tr.String(), fmt.Sprintf("%d", n)}
				cdf := r.CDF[b][k][tr]
				for i := range r.Thresholds {
					if i >= len(cdf) {
						// Placeholder for partial results, as in Fig3.
						row = append(row, "-")
						continue
					}
					row = append(row, fmt.Sprintf("%.2f", cdf[i]))
				}
				t.AddRow(row...)
			}
		}
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
