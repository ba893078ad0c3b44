package experiments

import (
	"encoding/json"
	"strings"
	"testing"
)

// Every name in Names must dispatch, and the registry must not grow
// entries Names doesn't advertise.
func TestRegistryCoversNames(t *testing.T) {
	names := Names()
	for _, name := range names {
		if _, ok := registry[name]; !ok {
			t.Errorf("Names lists %q but registry has no harness for it", name)
		}
	}
	if len(registry) != len(names) {
		t.Errorf("registry has %d entries, Names lists %d", len(registry), len(names))
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("fig99", Options{}, false); err == nil {
		t.Fatal("Run(fig99) succeeded, want error")
	}
}

// The static tables are free to run; check Report plumbing end to end.
func TestRunStaticTables(t *testing.T) {
	for _, name := range []string{"table1", "table2"} {
		rep, err := Run(name, Options{}, false)
		if err != nil {
			t.Fatalf("Run(%s): %v", name, err)
		}
		if rep.Name != name {
			t.Errorf("Run(%s) Name = %q", name, rep.Name)
		}
		if rep.Table == "" || rep.Result == nil {
			t.Errorf("Run(%s) returned empty table or nil result", name)
		}
		if rep.Elapsed < 0 {
			t.Errorf("Run(%s) Elapsed = %v", name, rep.Elapsed)
		}
	}
}

// Charts render only when requested and only where supported (fig5
// has none).
func TestRunChartGating(t *testing.T) {
	opt := Options{Instructions: 50_000, Benchmarks: []string{"fft"}}
	rep, err := Run("fig1", opt, true)
	if err != nil {
		t.Fatalf("Run(fig1): %v", err)
	}
	if rep.Chart == "" || !strings.Contains(rep.Chart, "MPKI") {
		t.Errorf("fig1 with charts: chart missing or unlabeled: %q", rep.Chart)
	}
	rep, err = Run("fig1", opt, false)
	if err != nil {
		t.Fatalf("Run(fig1): %v", err)
	}
	if rep.Chart != "" {
		t.Error("fig1 without charts still rendered one")
	}
}

// Options.validate must reject values the defaults would otherwise
// silently swallow: a negative instruction count forced through the
// CLI's int64→uint64 conversion, and empty or unknown benchmark
// overrides (which used to fall back to the default suite).
func TestRunValidatesOptions(t *testing.T) {
	cases := map[string]Options{
		"negative instructions": {Instructions: ^uint64(0)}, // -1 as int64
		"empty benchmark":       {Instructions: 50_000, Benchmarks: []string{""}},
		"unknown benchmark":     {Instructions: 50_000, Benchmarks: []string{"quake4"}},
	}
	for name, opt := range cases {
		if _, err := Run("fig1", opt, false); err == nil {
			t.Errorf("%s: Run accepted invalid options", name)
		}
	}
}

// Report.Elapsed must cover rendering exactly once: rendering is part
// of the report, but the old code stamped Elapsed both before and
// after the render depending on the path.
func TestRunElapsedCoversRender(t *testing.T) {
	rep, err := Run("fig1", Options{Instructions: 50_000, Benchmarks: []string{"fft"}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Elapsed <= 0 {
		t.Fatalf("Elapsed = %v, want > 0", rep.Elapsed)
	}
}

// TestRunManyMatchesRunEach: experiments run together — their plans
// unioned phase by phase, so their runs share fronts — report exactly
// the Result JSON each reports alone, host time aside. The set covers
// plain grids (fig1, fig7), analyzer taps (fig3, tree-stretch), and
// the phased plans (fig6's MIN rounds, CSOPT's replay).
func TestRunManyMatchesRunEach(t *testing.T) {
	names := []string{"fig1", "fig3", "fig6", "fig7", "tree-stretch", "csopt"}
	opt := Options{Instructions: 20_000, Benchmarks: []string{"canneal", "libquantum"}, Parallelism: 2}
	together, err := RunMany(names, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		alone, err := Run(name, opt, false)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := reportJSON(t, together[i]), reportJSON(t, alone); got != want {
			t.Errorf("%s run together differs from %s alone:\ntogether: %s\nalone:    %s", name, name, got, want)
		}
	}
}

// reportJSON is rep's JSON with its host times (Elapsed, CSOPT's
// solve time) zeroed.
func reportJSON(t *testing.T, rep *Report) string {
	t.Helper()
	r := *rep
	r.Elapsed = 0
	if cs, ok := r.Result.(*CSOPTResult); ok {
		c := *cs
		c.SolveTime = 0
		r.Result = &c
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
