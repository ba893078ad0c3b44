package experiments

import (
	"fmt"
	"strings"

	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/stats"
)

// SpecWindowResult quantifies the paper's §I caveat: "speculation is
// effective only if the verification latency is not too long.
// Verification may become a bottleneck if neither hashes nor tree
// nodes are cached."
type SpecWindowResult struct {
	Benchmarks []string
	Windows    []uint64 // cycles; 0 = unbounded
	MetaSizes  []int    // 0 = no metadata cache
	// Slowdown[benchmark][window][metaSize] = cycles / unbounded-
	// speculation cycles with the same metadata cache.
	Slowdown map[string]map[uint64]map[int]float64
	// StallShare[benchmark][window][metaSize] = fraction of reads
	// whose verification outran the window.
	StallShare map[string]map[uint64]map[int]float64
}

// SpecWindows are the window depths swept (cycles of verification the
// hardware can buffer).
var SpecWindows = []uint64{0, 400, 200, 100}

// SpecWindowMetaSizes are the metadata cache sizes swept; 0 means no
// metadata cache, the configuration where verification is longest.
var SpecWindowMetaSizes = []int{0, 16 << 10, 64 << 10}

// SpecWindow sweeps speculation window depth against metadata cache
// size. With a metadata cache, verification walks are short and any
// window hides them; with no cache, verification outruns small
// windows and speculation stops helping.
func SpecWindow(opt Options) (*SpecWindowResult, error) {
	opt.fill()
	benches := opt.benchmarks([]string{"canneal", "libquantum"})
	res := &SpecWindowResult{
		Benchmarks: benches,
		Windows:    SpecWindows,
		MetaSizes:  SpecWindowMetaSizes,
		Slowdown:   map[string]map[uint64]map[int]float64{},
		StallShare: map[string]map[uint64]map[int]float64{},
	}
	type key struct {
		bench  string
		window uint64
		meta   int
	}
	results := map[key]**sim.Result{}
	var jobs []job
	for _, b := range benches {
		for _, w := range SpecWindows {
			for _, m := range SpecWindowMetaSizes {
				cfg := sim.Config{
					Benchmark:         b,
					Instructions:      opt.Instructions,
					Secure:            true,
					Speculation:       true,
					SpeculationWindow: w,
				}
				if m > 0 {
					cfg.Meta = &metacache.Config{Size: m}
				}
				slot := new(*sim.Result)
				results[key{b, w, m}] = slot
				jobs = append(jobs, job{cfg: cfg, out: slot})
			}
		}
	}
	if err := runAll(jobs, opt); err != nil {
		return nil, err
	}
	for _, b := range benches {
		res.Slowdown[b] = map[uint64]map[int]float64{}
		res.StallShare[b] = map[uint64]map[int]float64{}
		for _, w := range SpecWindows {
			res.Slowdown[b][w] = map[int]float64{}
			res.StallShare[b][w] = map[int]float64{}
			for _, m := range SpecWindowMetaSizes {
				r := *results[key{b, w, m}]
				base := *results[key{b, 0, m}]
				res.Slowdown[b][w][m] = float64(r.Cycles) / float64(base.Cycles)
				if reads := r.Mem.DataReads; reads > 0 {
					res.StallShare[b][w][m] = float64(r.SpecWindowStalls) / float64(reads)
				}
			}
		}
	}
	return res, nil
}

// Render prints the sweep.
func (r *SpecWindowResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Extension: finite speculation windows (slowdown vs unbounded speculation)\n\n")
	for _, b := range r.Benchmarks {
		fmt.Fprintf(&sb, "%s:\n", b)
		var t stats.Table
		header := []string{"window \\ metacache"}
		for _, m := range r.MetaSizes {
			label := "none"
			if m > 0 {
				label = sizeLabel(m)
			}
			header = append(header, label)
		}
		t.AddRow(header...)
		for _, w := range r.Windows {
			label := "unbounded"
			if w > 0 {
				label = fmt.Sprintf("%d cycles", w)
			}
			row := []string{label}
			for _, m := range r.MetaSizes {
				row = append(row, fmt.Sprintf("%.3f (%.0f%% stall)",
					r.Slowdown[b][w][m], 100*r.StallShare[b][w][m]))
			}
			t.AddRow(row...)
		}
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	sb.WriteString("(with a metadata cache, verification is short and even shallow windows hide it;\n with no cache, verification outruns the window and speculation stops paying)\n")
	return sb.String()
}
