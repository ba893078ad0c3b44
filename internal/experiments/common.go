// Package experiments reproduces every table and figure of MAPS
// (ISPASS 2018). Each experiment is a plan — the simulations it needs,
// phase by phase — and a finish step that turns their results into a
// structured result with a Render method printing the same
// rows/series the paper plots. Every plan runs through one executor,
// fleet.RunLocal, and RunMany unions the plans of several experiments
// so a front they share is simulated once. DESIGN.md §4 maps
// experiments to modules and expected shapes.
package experiments

import (
	"fmt"
	"math"
	"runtime"

	"github.com/maps-sim/mapsim/internal/workload"
)

// Names lists every experiment, paper order first then extensions —
// the registry behind `maps all` and mapsd's GET /v1/experiments.
func Names() []string {
	return []string{
		"table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"ablate-partial", "content-matrix", "org-compare", "csopt", "spec-window", "tree-stretch",
	}
}

// Options tunes an experiment sweep.
type Options struct {
	// Instructions per simulation (default 2M; tests use far less).
	Instructions uint64
	// Benchmarks overrides the experiment's default benchmark list.
	Benchmarks []string
	// Parallelism is fleet.RunLocal's pool size: the simulations (or
	// run groups) in flight at once (default NumCPU).
	Parallelism int
}

// validate rejects option values that would otherwise be silently
// replaced by defaults: an Instructions count that is a negative
// number forced into the uint64 (the CLI parses int64), and benchmark
// overrides that are empty strings or unknown names — simulating the
// default suite against the caller's intent.
func (o *Options) validate() error {
	if o.Instructions > math.MaxInt64 {
		return fmt.Errorf("experiments: negative instruction count (%d after uint64 conversion)", o.Instructions)
	}
	for _, b := range o.Benchmarks {
		if b == "" {
			return fmt.Errorf("experiments: empty benchmark name in override list")
		}
		if _, err := workload.New(b); err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
	}
	return nil
}

func (o *Options) fill() {
	if o.Instructions == 0 {
		o.Instructions = 2_000_000
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.NumCPU()
	}
}

func (o *Options) benchmarks(def []string) []string {
	if len(o.Benchmarks) > 0 {
		return o.Benchmarks
	}
	return def
}

// MetaSizes are the metadata-cache capacities swept in Figures 1-2.
var MetaSizes = []int{16 << 10, 64 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20}

// LLCSizes are the last-level cache capacities swept in Figure 2.
var LLCSizes = []int{512 << 10, 1 << 20, 2 << 20, 4 << 20}
