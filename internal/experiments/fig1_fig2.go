package experiments

import (
	"fmt"
	"strings"

	"github.com/maps-sim/mapsim/internal/energy"
	"github.com/maps-sim/mapsim/internal/hierarchy"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/stats"
	"github.com/maps-sim/mapsim/internal/sweep"
)

// Fig1Contents are the content policies compared in Figure 1.
var Fig1Contents = []metacache.ContentPolicy{
	metacache.CountersOnly,
	metacache.CountersHashes,
	metacache.AllTypes,
}

// Fig1Result holds metadata MPKI per benchmark, content policy, and
// metadata cache size.
type Fig1Result struct {
	Benchmarks []string
	Sizes      []int
	Contents   []metacache.ContentPolicy
	// MPKI[benchmark][content][size] counts metadata-cache misses
	// among the types the cache holds — the paper's Figure 1 metric
	// (bypassed types are not misses).
	MPKI map[string]map[metacache.ContentPolicy]map[int]float64
	// MemPKI[benchmark][content][size] counts metadata *memory
	// accesses* per kilo-instruction — the traffic a bypassed type
	// still generates, which drives the energy argument.
	MemPKI map[string]map[metacache.ContentPolicy]map[int]float64
}

// Fig1 reproduces Figure 1: metadata MPKI as a function of metadata
// cache size when caching (i) only counters, (ii) counters+hashes,
// (iii) all metadata types, for canneal and libquantum.
func Fig1(opt Options) (*Fig1Result, error) { return runOne(opt, fig1) }

// fig1 plans Figure 1: one secure run per benchmark, content policy,
// and metadata-cache size.
func fig1(opt Options) (*Fig1Result, *plan, error) {
	res := &Fig1Result{
		Benchmarks: opt.benchmarks([]string{"canneal", "libquantum"}),
		Sizes:      MetaSizes,
		Contents:   Fig1Contents,
		MPKI:       map[string]map[metacache.ContentPolicy]map[int]float64{},
		MemPKI:     map[string]map[metacache.ContentPolicy]map[int]float64{},
	}
	p := &plan{}
	runs := map[string]map[metacache.ContentPolicy]map[int]*job{}
	for _, b := range res.Benchmarks {
		runs[b] = map[metacache.ContentPolicy]map[int]*job{}
		for _, c := range res.Contents {
			runs[b][c] = map[int]*job{}
			for _, s := range res.Sizes {
				runs[b][c][s] = p.run(sim.Config{
					Benchmark:    b,
					Instructions: opt.Instructions,
					Secure:       true,
					Speculation:  true,
					Meta:         &metacache.Config{Size: s, Content: c},
				})
			}
		}
	}
	p.finish = func() (*plan, error) {
		for b, byContent := range runs {
			res.MPKI[b] = map[metacache.ContentPolicy]map[int]float64{}
			res.MemPKI[b] = map[metacache.ContentPolicy]map[int]float64{}
			for c, bySize := range byContent {
				res.MPKI[b][c] = map[int]float64{}
				res.MemPKI[b][c] = map[int]float64{}
				for s, j := range bySize {
					res.MPKI[b][c][s] = j.res.MetaMPKI
					res.MemPKI[b][c][s] = j.res.MetaMemPKI
				}
			}
		}
		return nil, nil
	}
	return res, p, nil
}

// Render prints, per benchmark, the cache-miss MPKI table (the
// paper's metric) and the metadata memory-traffic table that exposes
// what bypassed types still cost.
func (r *Fig1Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 1: metadata MPKI by cache contents and size\n")
	sb.WriteString("(MPKI counts misses among cached types; mem/KI counts all metadata memory accesses)\n\n")
	for _, b := range r.Benchmarks {
		fmt.Fprintf(&sb, "%s:\n", b)
		var t stats.Table
		header := []string{"contents", "metric"}
		for _, s := range r.Sizes {
			header = append(header, sweep.SizeLabel(s))
		}
		t.AddRow(header...)
		for _, c := range r.Contents {
			row := []string{c.String(), "MPKI"}
			for _, s := range r.Sizes {
				row = append(row, fmt.Sprintf("%.1f", r.MPKI[b][c][s]))
			}
			t.AddRow(row...)
			row = []string{"", "mem/KI"}
			for _, s := range r.Sizes {
				row = append(row, fmt.Sprintf("%.1f", r.MemPKI[b][c][s]))
			}
			t.AddRow(row...)
		}
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Fig2Result holds normalized ED^2 per (LLC size, metadata cache
// size) for the suite average and for canneal.
type Fig2Result struct {
	LLCs  []int
	Metas []int
	// Norm[series][llc][meta] = ED^2 normalized to a 2MB-LLC insecure
	// system; series is "average" or a benchmark name.
	Norm map[string]map[int]map[int]float64
}

// Fig2 reproduces Figure 2: efficiency (normalized ED^2) across LLC
// and metadata cache size combinations, for the suite average and for
// canneal, normalized per benchmark to a 2 MB LLC without secure
// memory.
func Fig2(opt Options) (*Fig2Result, error) { return runOne(opt, fig2) }

// fig2 plans Figure 2: per benchmark, the insecure 2 MB-LLC baseline
// that ED^2 normalizes against, and the secure LLC × metadata grid.
func fig2(opt Options) (*Fig2Result, *plan, error) {
	// A balanced suite: the cache-friendly members (perlbench, gcc,
	// barnes) matter, because the paper's average-vs-canneal contrast
	// is about the common case preferring LLC capacity over metadata
	// cache capacity.
	benches := opt.benchmarks([]string{"perlbench", "gcc", "barnes", "libquantum", "fft", "leslie3d", "streamcluster", "canneal"})

	hier := func(llc int) hierarchy.Config {
		h := hierarchy.Default()
		h.L3Size = llc
		return h
	}
	type key struct {
		bench     string
		llc, meta int // meta<0 marks the insecure baseline
	}
	p := &plan{}
	runs := map[key]*job{}
	for _, b := range benches {
		runs[key{b, 2 << 20, -1}] = p.run(sim.Config{Benchmark: b, Instructions: opt.Instructions, Hierarchy: hier(2 << 20)})
		for _, llc := range LLCSizes {
			for _, meta := range MetaSizes {
				runs[key{b, llc, meta}] = p.run(sim.Config{
					Benchmark:    b,
					Instructions: opt.Instructions,
					Secure:       true,
					Speculation:  true,
					Hierarchy:    hier(llc),
					Meta:         &metacache.Config{Size: meta},
				})
			}
		}
	}

	res := &Fig2Result{LLCs: LLCSizes, Metas: MetaSizes, Norm: map[string]map[int]map[int]float64{}}
	put := func(series string, llc, meta int, v float64) {
		m := res.Norm[series]
		if m == nil {
			m = map[int]map[int]float64{}
			res.Norm[series] = m
		}
		mm := m[llc]
		if mm == nil {
			mm = map[int]float64{}
			m[llc] = mm
		}
		mm[meta] = v
	}
	p.finish = func() (*plan, error) {
		for _, llc := range LLCSizes {
			for _, meta := range MetaSizes {
				var norms []float64
				for _, b := range benches {
					baseline := runs[key{b, 2 << 20, -1}].res.ED2
					v := energy.Normalized(runs[key{b, llc, meta}].res.ED2, baseline)
					norms = append(norms, v)
					if b == "canneal" {
						put("canneal", llc, meta, v)
					}
				}
				put("average", llc, meta, stats.Geomean(norms))
			}
		}
		return nil, nil
	}
	return res, p, nil
}

// Render prints normalized ED^2 tables for the average and canneal,
// with the total SRAM budget (LLC + metadata cache) alongside.
func (r *Fig2Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 2: normalized ED^2 vs cache budget (baseline: 2MB LLC, no secure memory)\n\n")
	for _, series := range []string{"average", "canneal"} {
		if r.Norm[series] == nil {
			continue
		}
		fmt.Fprintf(&sb, "%s:\n", series)
		var t stats.Table
		header := []string{"LLC \\ meta"}
		for _, m := range r.Metas {
			header = append(header, sweep.SizeLabel(m))
		}
		t.AddRow(header...)
		for _, llc := range r.LLCs {
			row := []string{sweep.SizeLabel(llc)}
			for _, m := range r.Metas {
				row = append(row, fmt.Sprintf("%.2f", r.Norm[series][llc][m]))
			}
			t.AddRow(row...)
		}
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
