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
func Fig7(opt Options) (*Fig7Result, error) {
	opt.fill()
	benches := opt.benchmarks([]string{"barnes", "canneal", "libquantum", "mcf", "fft", "leslie3d", "streamcluster", "gcc"})
	for _, b := range benches {
		if _, err := workload.New(b); err != nil {
			return nil, err
		}
	}

	// Every scheme of one benchmark shares its front, so runAll
	// simulates each benchmark's generator and hierarchy once per
	// group.
	var jobList []job
	runs := map[string]*fig7Runs{}
	for _, b := range benches {
		r := &fig7Runs{}
		runs[b] = r
		jobList = append(jobList, r.jobs(b, opt.Instructions)...)
	}
	if err := runAll(jobList, opt); err != nil {
		return nil, err
	}
	data := map[string]*benchData{}
	for _, b := range benches {
		data[b] = runs[b].data()
	}

	res := &Fig7Result{
		Benchmarks: benches,
		Overhead:   map[string]map[string]float64{},
		BestSplit:  map[string]int{},
	}
	// Best split per benchmark, then the suite-average split.
	splitSum := 0
	for _, b := range benches {
		best, bestED2 := 0, 0.0
		for w, e := range data[b].static {
			if best == 0 || e < bestED2 {
				best, bestED2 = w, e
			}
		}
		res.BestSplit[b] = best
		splitSum += best
	}
	res.AvgSplit = (splitSum + len(benches)/2) / len(benches)
	if res.AvgSplit < 1 {
		res.AvgSplit = 1
	}
	if res.AvgSplit > Fig7Ways-1 {
		res.AvgSplit = Fig7Ways - 1
	}

	for _, b := range benches {
		d := data[b]
		res.Overhead[b] = map[string]float64{
			"none":        energy.Normalized(d.none, d.baseline),
			"best-static": energy.Normalized(d.static[res.BestSplit[b]], d.baseline),
			"avg-static":  energy.Normalized(d.static[res.AvgSplit], d.baseline),
			"dynamic":     energy.Normalized(d.dynamic, d.baseline),
		}
	}
	return res, nil
}

// benchData collects one benchmark's ED^2 under every scheme.
type benchData struct {
	baseline float64
	none     float64
	dynamic  float64
	static   map[int]float64 // counter ways -> ED^2
}

// fig7Runs holds one benchmark's runs: the insecure baseline, the
// unpartitioned cache, dynamic partitioning, and every static split.
type fig7Runs struct {
	baseline, none, dynamic *sim.Result
	static                  [Fig7Ways]*sim.Result // index = counter ways
}

// jobs lists the runs for bench, each delivering into r.
func (r *fig7Runs) jobs(bench string, instructions uint64) []job {
	mk := func(out **sim.Result, secure bool, scheme partition.Scheme) job {
		cfg := sim.Config{Benchmark: bench, Instructions: instructions}
		if secure {
			cfg.Secure = true
			cfg.Speculation = true
			cfg.Meta = &metacache.Config{Size: Fig7CacheSize, Ways: Fig7Ways, Partition: scheme}
		}
		return job{cfg: cfg, out: out}
	}
	jobList := []job{
		mk(&r.baseline, false, nil),
		mk(&r.none, true, nil),
		mk(&r.dynamic, true, partition.NewDynamic(2, 6)),
	}
	for w := 1; w < Fig7Ways; w++ {
		jobList = append(jobList, mk(&r.static[w], true, partition.NewStatic(w)))
	}
	return jobList
}

// data extracts the ED^2 of every run.
func (r *fig7Runs) data() *benchData {
	d := &benchData{
		baseline: r.baseline.ED2,
		none:     r.none.ED2,
		dynamic:  r.dynamic.ED2,
		static:   map[int]float64{},
	}
	for w := 1; w < Fig7Ways; w++ {
		d.static[w] = r.static[w].ED2
	}
	return d
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
