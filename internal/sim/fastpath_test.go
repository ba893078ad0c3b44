package sim

import (
	"reflect"
	"testing"

	"github.com/maps-sim/mapsim/internal/metacache"
)

// TestFastPathBitIdentical is the cross-check behind the fast-path
// contract: routing every cache through the generic Policy interface
// (DisableFastPath) must produce a bit-identical Result to the
// devirtualized hot path, for both the insecure baseline and a full
// secure run with a metadata cache.
func TestFastPathBitIdentical(t *testing.T) {
	configs := map[string]Config{
		"insecure": {
			Benchmark:    "canneal",
			Instructions: testInstr,
		},
		"secure": {
			Benchmark:    "streamcluster",
			Instructions: testInstr,
			Secure:       true,
			Speculation:  true,
			Meta:         &metacache.Config{Size: 32 << 10, Ways: 8},
		},
		"secure-no-meta": {
			Benchmark:    "canneal",
			Instructions: testInstr / 4,
			Secure:       true,
		},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			fast, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			slow := cfg
			slow.DisableFastPath = true
			if slow.Meta != nil {
				metaCopy := *slow.Meta
				slow.Meta = &metaCopy
			}
			generic, err := Run(slow)
			if err != nil {
				t.Fatal(err)
			}
			checkIdentities(t, cfg, fast)
			checkIdentities(t, slow, generic)
			// Wall-clock timing legitimately differs between the paths.
			fast.Timing = PhaseTiming{}
			generic.Timing = PhaseTiming{}
			if !reflect.DeepEqual(fast, generic) {
				t.Errorf("fast path diverges from generic policy path\nfast:    %+v\ngeneric: %+v", fast, generic)
			}
		})
	}
}

// TestDisableFastPathCanonicalErased pins that the knob carries no
// simulation identity: canonical forms (and therefore result-cache
// keys) are identical with and without it.
func TestDisableFastPathCanonicalErased(t *testing.T) {
	base := Config{Benchmark: "canneal", Secure: true, Meta: &metacache.Config{Size: 32 << 10, Ways: 8}}
	on := base
	on.DisableFastPath = true
	metaCopy := *base.Meta
	metaCopy.DisableFastPath = true
	on.Meta = &metaCopy

	cOff, err := base.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	cOn, err := on.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cOff, cOn) {
		t.Errorf("canonical forms differ:\noff: %+v\non:  %+v", cOff, cOn)
	}
	if cOn.DisableFastPath || cOn.Hierarchy.DisableFastPath || cOn.Meta.DisableFastPath {
		t.Errorf("canonical form retains DisableFastPath: %+v", cOn)
	}
}
