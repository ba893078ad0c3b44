package mapsim

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/maps-sim/mapsim/internal/cache/policy"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/obs"
	"github.com/maps-sim/mapsim/internal/partition"
	"github.com/maps-sim/mapsim/internal/sim"
)

func TestRunSuiteBasics(t *testing.T) {
	benches := []string{"libquantum", "perlbench", "fft"}
	res, err := RunSuite(Config{
		Instructions: 80_000,
		Secure:       true,
		Speculation:  true,
		Meta:         &metacache.Config{Size: 64 << 10, Ways: 8},
	}, benches, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerBench) != 3 {
		t.Fatalf("got %d results", len(res.PerBench))
	}
	if !slices.Equal(res.Order, benches) {
		t.Errorf("order %v, want the requested %v", res.Order, benches)
	}
	if res.GeomeanLLCMPKI <= 0 || res.GeomeanIPC <= 0 || res.GeomeanED2 <= 0 {
		t.Errorf("geomeans: %+v", res)
	}
	for _, b := range res.Order {
		r := res.PerBench[b]
		if r == nil || r.MetaMPKI <= 0 || r.Cycles == 0 {
			t.Errorf("%s: degenerate result %+v", b, r)
		}
	}
	out := res.Render()
	if !strings.Contains(out, "geomean") || !strings.Contains(out, "fft") {
		t.Errorf("render incomplete:\n%s", out)
	}
}

func TestRunSuiteDefaultsToFullRegistry(t *testing.T) {
	res, err := RunSuite(Config{Instructions: 20_000}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerBench) != 16 {
		t.Errorf("expected all 16 benchmarks, got %d", len(res.PerBench))
	}
}

func TestRunSuiteRejectsSharedStatefulConfig(t *testing.T) {
	_, err := RunSuite(Config{
		Instructions: 10_000,
		Secure:       true,
		Meta:         &metacache.Config{Size: 64 << 10, Ways: 8, Policy: policy.NewLRU()},
	}, []string{"libquantum", "fft"}, 2)
	if err == nil {
		t.Error("shared policy instance accepted")
	}
	_, err = RunSuite(Config{
		Instructions: 10_000,
		Secure:       true,
		Meta:         &metacache.Config{Size: 64 << 10, Ways: 8, Partition: partition.NewDynamic(2, 6)},
	}, []string{"libquantum", "fft"}, 2)
	if err == nil {
		t.Error("shared partition instance accepted")
	}
}

func TestRunSuitePropagatesErrors(t *testing.T) {
	if _, err := RunSuite(Config{Instructions: 10_000}, []string{"nonesuch"}, 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// A suite is a benchmark-axis sweep, so a name the sweep refuses —
// here one given twice — fails the suite instead of collapsing into
// one PerBench entry.
func TestRunSuiteRejectsDuplicateBenchmark(t *testing.T) {
	if _, err := RunSuite(Config{Instructions: 10_000}, []string{"fft", "canneal", "fft"}, 1); err == nil {
		t.Error("duplicate benchmark accepted")
	}
}

// One failing benchmark must cancel the rest of the suite: the
// remaining long runs stop early instead of completing and being
// discarded.
func TestRunSuiteContextEarlyCancelOnFailure(t *testing.T) {
	start := time.Now()
	// "no-such-bench" fails instantly; the valid benchmarks are sized
	// so that finishing them all would take far longer than the
	// asserted bound.
	_, err := RunSuiteContext(context.Background(), Config{Instructions: 500_000_000},
		[]string{"no-such-bench", "libquantum", "fft", "canneal", "leslie3d"}, 2)
	if err == nil {
		t.Fatal("want error from invalid benchmark")
	}
	if !strings.Contains(err.Error(), "no-such-bench") {
		t.Fatalf("error %q does not name the failing benchmark", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("suite took %v; cancellation did not stop the suite", elapsed)
	}
}

func TestRunSuiteContextParentCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunSuiteContext(ctx, Config{Instructions: 100_000_000}, []string{"libquantum", "fft"}, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestSuiteRejectsSpecAndTrace(t *testing.T) {
	sp, err := ParseWorkloadSpec([]byte(`
name: one-client
clients:
  - name: a
    rate_fraction: 1
    footprint: 256KB
`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSuite(Config{WorkloadSpec: sp}, []string{"canneal"}, 1); err == nil {
		t.Error("RunSuite accepted a base config with WorkloadSpec")
	}
	if _, err := RunSuite(Config{TracePath: "x.mtrc"}, []string{"canneal"}, 1); err == nil {
		t.Error("RunSuite accepted a base config with TracePath")
	}
}

// A suite sharing one Progress must publish the whole suite's total
// before runs start adding to it.
func TestSuiteProgressTotal(t *testing.T) {
	const checkInterval = 1 << 16 // the simulator's cancellation-check stride
	var p obs.Progress
	base := Config{
		Instructions: 2 * checkInterval,
		Warmup:       checkInterval,
		Secure:       true,
		Progress:     &p,
	}
	benches := []string{"fft", "libquantum", "lbm"}
	if _, err := RunSuite(base, benches, 2); err != nil {
		t.Fatal(err)
	}
	s := p.Snapshot()
	wantTotal := uint64(len(benches)) * (base.Warmup + base.Instructions)
	if s.Total != wantTotal {
		t.Errorf("suite total = %d, want %d", s.Total, wantTotal)
	}
	if s.Done < wantTotal {
		t.Errorf("suite done = %d, want ≥ %d", s.Done, wantTotal)
	}
}

// TestSuiteRenderPartial is the regression test for the nil-pointer
// panic a partial SuiteResult (e.g. JSON-decoded from mapsd with a
// benchmark missing from PerBench) used to hit in Render: the missing
// benchmark now renders a placeholder row and the geomean row still
// prints.
func TestSuiteRenderPartial(t *testing.T) {
	res, err := RunSuite(Config{
		Instructions: 40_000,
		Secure:       true,
		Speculation:  true,
		Meta:         &metacache.Config{Size: 64 << 10, Ways: 8},
	}, []string{"libquantum", "fft"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	delete(res.PerBench, "fft") // simulate the partial decode
	out := res.Render()
	if !strings.Contains(out, "fft") {
		t.Fatalf("missing benchmark dropped from render:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "fft") && !strings.Contains(line, "-") {
			t.Fatalf("fft row is not a placeholder: %q", line)
		}
	}
	if !strings.Contains(out, "geomean") {
		t.Fatalf("geomean row missing:\n%s", out)
	}
}

// Each benchmark's result in a suite is exactly what a lone run of the
// same config simulates, host timing aside.
func TestRunSuiteMatchesLoneRuns(t *testing.T) {
	base := Config{
		Instructions: 60_000,
		Secure:       true,
		Speculation:  true,
		Meta:         &metacache.Config{Size: 32 << 10},
	}
	res, err := RunSuite(base, []string{"canneal", "lbm"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res.Order {
		cfg := base
		cfg.Benchmark = b
		lone, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := *res.PerBench[b]
		got.Timing, lone.Timing = sim.PhaseTiming{}, sim.PhaseTiming{}
		if !reflect.DeepEqual(&got, lone) {
			t.Errorf("%s: suite result differs from a lone run:\nsuite %+v\nlone  %+v", b, got, *lone)
		}
	}
}
