package experiments

import (
	"fmt"
	"math"
	"strings"

	"github.com/maps-sim/mapsim/internal/cache"
	"github.com/maps-sim/mapsim/internal/cache/eva"
	"github.com/maps-sim/mapsim/internal/cache/opt"
	"github.com/maps-sim/mapsim/internal/cache/policy"
	"github.com/maps-sim/mapsim/internal/cache/typepred"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/stats"
	"github.com/maps-sim/mapsim/internal/trace"
	"github.com/maps-sim/mapsim/internal/workload"
)

// Fig6CacheSize is the metadata cache size of Figure 6, chosen by the
// paper to align with the reuse-distance analysis.
const Fig6CacheSize = 64 << 10

// Fig6Policies are the policies compared, in display order.
var Fig6Policies = []string{"plru", "eva", "min", "itermin"}

// Fig6ExtraPolicies extend the comparison beyond the paper (Extension
// in DESIGN.md §5).
var Fig6ExtraPolicies = []string{"lru", "srrip", "typepred", "eva-pertype"}

// Fig6Result holds metadata MPKI per benchmark and eviction policy.
type Fig6Result struct {
	Benchmarks []string
	Policies   []string
	// MPKI[benchmark][policy]
	MPKI map[string]map[string]float64
	// IterMINRounds[benchmark] reports how many trace iterations
	// iterMIN needed to converge (or the cap).
	IterMINRounds map[string]int
}

// iterMINCap bounds the fixed-point iteration.
const iterMINCap = 4

// Fig6 reproduces Figure 6: metadata misses under pseudo-LRU, EVA,
// Belady's MIN (with future knowledge from a true-LRU trace), and
// iterMIN (MIN iterated to a trace fixed point) on a 64 KB metadata
// cache. The paper's point — that MIN and iterMIN are frequently
// *worse* than pseudo-LRU because metadata miss costs are non-uniform
// and the access trace depends on cache contents — emerges from the
// same mechanism here.
func Fig6(opt Options) (*Fig6Result, error) { return runOne(opt, fig6) }

// fig6 plans Figure 6: every benchmark's policy comparison, unioned
// phase by phase.
func fig6(opt Options) (*Fig6Result, *plan, error) {
	benches := opt.benchmarks(workload.MemoryIntensive())
	res := &Fig6Result{
		Benchmarks:    benches,
		Policies:      append(append([]string{}, Fig6Policies...), Fig6ExtraPolicies...),
		MPKI:          map[string]map[string]float64{},
		IterMINRounds: map[string]int{},
	}
	plans := make([]*plan, len(benches))
	for i, b := range benches {
		res.MPKI[b] = map[string]float64{}
		plans[i] = fig6Bench(b, opt.Instructions, res)
	}
	return res, together(plans), nil
}

// fig6Bench plans the policy comparison for one benchmark in phases:
// the online policies, then MIN on the LRU run's trace, then one
// phase per iterMIN round on the round before's trace.
func fig6Bench(bench string, instructions uint64, res *Fig6Result) *plan {
	mpki := res.MPKI[bench]
	cfg := func(p cache.Policy, tap func(trace.Access)) sim.Config {
		return sim.Config{
			Benchmark:    bench,
			Instructions: instructions,
			Secure:       true,
			Speculation:  true,
			Meta:         &metacache.Config{Size: Fig6CacheSize, Policy: p},
			Tap:          tap,
		}
	}
	// traced plans one MIN run with prev as its future knowledge,
	// recording the run's own trace, and hands the result and that
	// trace to then.
	traced := func(prev *trace.Trace, then func(r *sim.Result, tr *trace.Trace) *plan) *plan {
		tr := &trace.Trace{}
		p := &plan{}
		j := p.run(cfg(opt.NewMIN(prev), tr.Append))
		p.finish = func() (*plan, error) { return then(j.res, tr), nil }
		return p
	}

	// iterMIN: feed each run's trace into the next until the miss
	// count stops moving. The MIN run is round 1.
	var round func(rounds int, prevTrace *trace.Trace, prevMPKI float64) *plan
	round = func(rounds int, prevTrace *trace.Trace, prevMPKI float64) *plan {
		if rounds >= iterMINCap {
			mpki["itermin"], res.IterMINRounds[bench] = prevMPKI, rounds
			return nil
		}
		return traced(prevTrace, func(r *sim.Result, next *trace.Trace) *plan {
			if math.Abs(r.MetaMPKI-prevMPKI) <= 0.005*prevMPKI || next.Equal(prevTrace) {
				mpki["itermin"], res.IterMINRounds[bench] = r.MetaMPKI, rounds
				return nil
			}
			return round(rounds+1, next, r.MetaMPKI)
		})
	}

	// The online policies need nothing from each other, so they share
	// one pass of the benchmark's front end (one run group). The
	// true-LRU run also gathers the trace MIN will use as future
	// knowledge (§V-B: "simulate the benchmark once using true-LRU,
	// gather the cache access trace"). typepred is the paper's SVI
	// future-work suggestion (reuse prediction keyed on metadata
	// type); eva-pertype is EVA with per-type histograms, the fix
	// implied by the paper's diagnosis of why single-histogram EVA
	// fails.
	lruTrace := &trace.Trace{}
	online := &plan{}
	runs := map[string]*job{
		"lru":         online.run(cfg(policy.NewLRU(), lruTrace.Append)),
		"plru":        online.run(cfg(policy.NewPLRU(), nil)),
		"eva":         online.run(cfg(eva.New(eva.Config{}), nil)),
		"srrip":       online.run(cfg(policy.NewSRRIP(), nil)),
		"typepred":    online.run(cfg(typepred.New(), nil)),
		"eva-pertype": online.run(cfg(eva.NewPerType(eva.Config{}), nil)),
	}
	online.finish = func() (*plan, error) {
		for name, j := range runs {
			mpki[name] = j.res.MetaMPKI
		}
		// MIN with (stale-able) future knowledge from the LRU trace.
		return traced(lruTrace, func(r *sim.Result, minTrace *trace.Trace) *plan {
			mpki["min"] = r.MetaMPKI
			return round(1, minTrace, r.MetaMPKI)
		}), nil
	}
	return online
}

// Render prints the per-benchmark policy comparison.
func (r *Fig6Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 6: metadata MPKI by eviction policy (64KB metadata cache)\n\n")
	var t stats.Table
	header := append([]string{"benchmark"}, r.Policies...)
	header = append(header, "iterMIN rounds")
	t.AddRow(header...)
	for _, b := range r.Benchmarks {
		row := []string{b}
		for _, p := range r.Policies {
			row = append(row, fmt.Sprintf("%.1f", r.MPKI[b][p]))
		}
		row = append(row, fmt.Sprintf("%d", r.IterMINRounds[b]))
		t.AddRow(row...)
	}
	sb.WriteString(t.String())
	sb.WriteString("\n(min/itermin use trace-based future knowledge that goes stale as\n decisions deviate — the paper's central negative result)\n")
	return sb.String()
}
