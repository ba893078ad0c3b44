package sim

import (
	"testing"

	"github.com/maps-sim/mapsim/internal/cache/policy"
	"github.com/maps-sim/mapsim/internal/metacache"
)

func TestRunSeeds(t *testing.T) {
	res, err := RunSeeds(Config{
		Benchmark:    "canneal",
		Instructions: 100_000,
		Secure:       true,
		Meta:         &metacache.Config{Size: 64 << 10, Ways: 8},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 4 || res.Seeds != 4 {
		t.Fatalf("runs = %d", len(res.Runs))
	}
	if res.MetaMPKI.Mean <= 0 || res.MetaMPKI.Min > res.MetaMPKI.Max {
		t.Errorf("meta stats: %+v", res.MetaMPKI)
	}
	// Synthetic workloads are statistically stable: spread under 10%.
	if cv := res.MetaMPKI.CoefficientOfVariation(); cv > 0.10 {
		t.Errorf("meta MPKI CV = %v across seeds, want < 0.10", cv)
	}
	if (SeedStats{}).CoefficientOfVariation() != 0 {
		t.Error("zero-mean CV should be 0")
	}
}

func TestRunSeedsValidation(t *testing.T) {
	if _, err := RunSeeds(Config{Benchmark: "fft"}, 0); err == nil {
		t.Error("zero seeds accepted")
	}
	if _, err := RunSeeds(Config{Benchmark: "fft", Instructions: 10_000, Secure: true,
		Meta: &metacache.Config{Size: 64 << 10, Ways: 8, Policy: policy.NewLRU()}}, 2); err == nil {
		t.Error("stateful policy accepted")
	}
	if _, err := RunSeeds(Config{Benchmark: "nonesuch", Instructions: 10_000}, 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}
