package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"

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
func Fig6(opt_ Options) (*Fig6Result, error) {
	opt_.fill()
	benches := opt_.benchmarks(workload.MemoryIntensive())
	res := &Fig6Result{
		Benchmarks:    benches,
		Policies:      append(append([]string{}, Fig6Policies...), Fig6ExtraPolicies...),
		MPKI:          map[string]map[string]float64{},
		IterMINRounds: map[string]int{},
	}

	var mu sync.Mutex
	err := runTasks(context.Background(), len(benches), opt_.Parallelism, func(ctx context.Context, i int) error {
		b := benches[i]
		mpki, rounds, err := fig6Bench(ctx, b, opt_.Instructions)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", b, err)
		}
		mu.Lock()
		res.MPKI[b] = mpki
		res.IterMINRounds[b] = rounds
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// fig6Bench runs the whole policy comparison for one benchmark.
func fig6Bench(ctx context.Context, bench string, instructions uint64) (map[string]float64, int, error) {
	mpki := map[string]float64{}

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
	run := func(p cache.Policy, tap func(trace.Access)) (*sim.Result, error) {
		return sim.RunContext(ctx, cfg(p, tap))
	}

	// The online policies need nothing from each other, so they share
	// one pass of the benchmark's front end (sim.RunGroup). The
	// true-LRU run also gathers the trace MIN will use as future
	// knowledge (§V-B: "simulate the benchmark once using true-LRU,
	// gather the cache access trace"). typepred is the paper's SVI
	// future-work suggestion (reuse prediction keyed on metadata
	// type); eva-pertype is EVA with per-type histograms, the fix
	// implied by the paper's diagnosis of why single-histogram EVA
	// fails.
	lruTrace := &trace.Trace{}
	online := []string{"lru", "plru", "eva", "srrip", "typepred", "eva-pertype"}
	rs, err := sim.RunGroup(ctx, []sim.Config{
		cfg(policy.NewLRU(), lruTrace.Append),
		cfg(policy.NewPLRU(), nil),
		cfg(eva.New(eva.Config{}), nil),
		cfg(policy.NewSRRIP(), nil),
		cfg(typepred.New(), nil),
		cfg(eva.NewPerType(eva.Config{}), nil),
	})
	if err != nil {
		return nil, 0, err
	}
	for i, name := range online {
		mpki[name] = rs[i].MetaMPKI
	}

	// MIN with (stale-able) future knowledge from the LRU trace.
	minTrace := &trace.Trace{}
	r, err := run(opt.NewMIN(lruTrace), minTrace.Append)
	if err != nil {
		return nil, 0, err
	}
	mpki["min"] = r.MetaMPKI

	// iterMIN: feed each run's trace into the next until the miss
	// count stops moving.
	prevTrace := minTrace
	prevMPKI := r.MetaMPKI
	rounds := 1
	for ; rounds < iterMINCap; rounds++ {
		nextTrace := &trace.Trace{}
		r, err = run(opt.NewMIN(prevTrace), nextTrace.Append)
		if err != nil {
			return nil, 0, err
		}
		converged := math.Abs(r.MetaMPKI-prevMPKI) <= 0.005*prevMPKI ||
			nextTrace.Equal(prevTrace)
		prevTrace, prevMPKI = nextTrace, r.MetaMPKI
		if converged {
			break
		}
	}
	mpki["itermin"] = prevMPKI
	return mpki, rounds, nil
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
