package experiments

import (
	"fmt"
	"strings"

	"github.com/maps-sim/mapsim/internal/energy"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/partition"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/stats"
	"github.com/maps-sim/mapsim/internal/workload"
)

// Fig7CacheSize is the metadata cache size used in the partitioning
// study.
const Fig7CacheSize = 64 << 10

// Fig7Ways is its associativity; static splits sweep 1..Fig7Ways-1
// counter ways.
const Fig7Ways = 8

// Fig7Schemes are the cache organizations compared, in display order.
var Fig7Schemes = []string{"none", "best-static", "avg-static", "dynamic"}

// Fig7Result holds normalized ED^2 overheads per benchmark and
// partitioning scheme.
type Fig7Result struct {
	Benchmarks []string
	// Overhead[benchmark][scheme] = ED^2 / insecure ED^2.
	Overhead map[string]map[string]float64
	// BestSplit[benchmark] is the counter-way allocation that
	// minimized ED^2 (shown below the x-axis in the paper).
	BestSplit map[string]int
	// AvgSplit is the across-suite best split applied uniformly.
	AvgSplit int
}

// Fig7 reproduces Figure 7: ED^2 overhead of secure memory with (i)
// no metadata-cache partition, (ii) the best static counter/hash
// split per application, (iii) the suite-average best split, and (iv)
// set-dueling dynamic partitioning.
func Fig7(opt Options) (*Fig7Result, error) { return runOne(opt, fig7) }

// fig7Runs holds one benchmark's runs: the insecure baseline, the
// unpartitioned cache, dynamic partitioning, and every static split.
type fig7Runs struct {
	baseline, none, dynamic *job
	static                  [Fig7Ways]*job // index = counter ways
}

// fig7 plans Figure 7: every scheme of every benchmark, all sharing
// the benchmark's front.
func fig7(opt Options) (*Fig7Result, *plan, error) {
	benches := opt.benchmarks([]string{"barnes", "canneal", "libquantum", "mcf", "fft", "leslie3d", "streamcluster", "gcc"})
	for _, b := range benches {
		if _, err := workload.New(b); err != nil {
			return nil, nil, err
		}
	}
	p := &plan{}
	runs := map[string]*fig7Runs{}
	for _, b := range benches {
		mk := func(secure bool, scheme partition.Scheme) *job {
			cfg := sim.Config{Benchmark: b, Instructions: opt.Instructions}
			if secure {
				cfg.Secure = true
				cfg.Speculation = true
				cfg.Meta = &metacache.Config{Size: Fig7CacheSize, Ways: Fig7Ways, Partition: scheme}
			}
			return p.run(cfg)
		}
		r := &fig7Runs{baseline: mk(false, nil), none: mk(true, nil), dynamic: mk(true, partition.NewDynamic(2, 6))}
		for w := 1; w < Fig7Ways; w++ {
			r.static[w] = mk(true, partition.NewStatic(w))
		}
		runs[b] = r
	}

	res := &Fig7Result{
		Benchmarks: benches,
		Overhead:   map[string]map[string]float64{},
		BestSplit:  map[string]int{},
	}
	p.finish = func() (*plan, error) {
		// Best split per benchmark, then the suite-average split.
		splitSum := 0
		for _, b := range benches {
			best, bestED2 := 0, 0.0
			for w := 1; w < Fig7Ways; w++ {
				if e := runs[b].static[w].res.ED2; best == 0 || e < bestED2 {
					best, bestED2 = w, e
				}
			}
			res.BestSplit[b] = best
			splitSum += best
		}
		res.AvgSplit = min(max((splitSum+len(benches)/2)/len(benches), 1), Fig7Ways-1)

		for _, b := range benches {
			r := runs[b]
			ed2 := func(j *job) float64 { return energy.Normalized(j.res.ED2, r.baseline.res.ED2) }
			res.Overhead[b] = map[string]float64{
				"none":        ed2(r.none),
				"best-static": ed2(r.static[res.BestSplit[b]]),
				"avg-static":  ed2(r.static[res.AvgSplit]),
				"dynamic":     ed2(r.dynamic),
			}
		}
		return nil, nil
	}
	return res, p, nil
}

// Render prints the overhead table with each benchmark's best split.
func (r *Fig7Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 7: ED^2 overhead by partitioning scheme (64KB metadata cache)\n\n")
	var t stats.Table
	header := append([]string{"benchmark"}, Fig7Schemes...)
	header = append(header, "best split")
	t.AddRow(header...)
	for _, b := range r.Benchmarks {
		row := []string{b}
		for _, s := range Fig7Schemes {
			row = append(row, fmt.Sprintf("%.2f", r.Overhead[b][s]))
		}
		row = append(row, fmt.Sprintf("%d/%d", r.BestSplit[b], Fig7Ways-r.BestSplit[b]))
		t.AddRow(row...)
	}
	sb.WriteString(t.String())
	fmt.Fprintf(&sb, "\n(avg-static uses %d counter ways across the suite; splits are counter/hash ways; tree nodes are never constrained)\n", r.AvgSplit)
	return sb.String()
}
