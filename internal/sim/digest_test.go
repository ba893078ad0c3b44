package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"github.com/maps-sim/mapsim/internal/cache/policy"
	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/metacache"
)

// digestOf hashes everything a Result reports about the simulation.
// Timing (how the run executed) is left out, as in perfbench's
// digests, so the values below are comparable with digests.json
// there.
func digestOf(t *testing.T, r *Result) string {
	t.Helper()
	c := *r
	c.Timing = PhaseTiming{}
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// pinnedDigests lists runs whose Result digests were recorded from the
// sequential single-loop simulator that preceded the two-stage one.
// The twin tests compare the inline and pipelined placements of the
// same stages with each other; these pin both to results computed
// independently of the stage split, so cycle-accounting or marker
// drift shared by both placements still fails. secure-canneal-seed1
// is perfbench's secure-canneal digest for seed 1.
var pinnedDigests = []struct {
	name string
	cfg  func(t *testing.T) Config
	want string
}{
	{"secure-canneal-seed1", func(*testing.T) Config {
		return Config{Benchmark: "canneal", Instructions: 2_000_000, Seed: 1,
			Secure: true, Speculation: true, Meta: &metacache.Config{Size: 64 << 10, Ways: 8}}
	}, "527c190725bfe616540a9b65fdb1dcf13c044e51313ccde3729eb097f44abfb9"},
	{"secure-sgx", func(*testing.T) Config {
		return Config{Benchmark: "streamcluster", Instructions: testInstr, Seed: 7,
			Secure: true, Speculation: true, Org: memlayout.SGX, Meta: &metacache.Config{Size: 32 << 10, Ways: 8}}
	}, "bca235608433bcc16b85948b7b07f1f0b38045d635d0b74eae05c0c6e437ae04"},
	{"secure-no-meta", func(*testing.T) Config {
		return Config{Benchmark: "libquantum", Instructions: testInstr / 2, Secure: true}
	}, "b4beeff30132618186b6db0c5cd32ee7e6c78cb032ba79cd956397b632fb4c16"},
	{"insecure", func(*testing.T) Config {
		return Config{Benchmark: "mcf", Instructions: testInstr}
	}, "350c1022738b86d6f39b6053264682d785204809a19b959cb86ff2dbc093c3c8"},
	{"base-cpi", func(*testing.T) Config {
		return Config{Benchmark: "milc", Instructions: testInstr / 2,
			Secure: true, Meta: &metacache.Config{Size: 32 << 10, Ways: 8}, BaseCPI: 1.5}
	}, "947fd6ddc349da95a37f44848666463f06287ea13c2f994bf65cee978578b099"},
	{"lru-partial-writes", func(*testing.T) Config {
		return Config{Benchmark: "lbm", Instructions: testInstr / 2, Secure: true,
			Meta: &metacache.Config{Size: 16 << 10, Ways: 8, PartialWrites: true, Policy: policy.NewLRU()}}
	}, "f2dae09d9fc00cff5fee8301ef2af0ae91229b2e20067e15dacc3874bde8491b"},
	{"spec-workload", func(t *testing.T) Config {
		return Config{WorkloadSpec: parseSpecT(t), Instructions: testInstr / 2,
			Secure: true, Meta: &metacache.Config{Size: 32 << 10, Ways: 8, Content: metacache.CountersOnly}}
	}, "ff6c52c27cda95f87c84d330c8a1f299ccfd2851b4bdad920b5276f3deb72dd2"},
}

// TestResultDigestsPinned runs each pinned config inline and
// pipelined and requires both to reproduce the recorded digest and to
// keep the accounting identities (checkIdentities).
func TestResultDigestsPinned(t *testing.T) {
	forcePipelined(t)
	for _, tc := range pinnedDigests {
		t.Run(tc.name, func(t *testing.T) {
			for placement, ctx := range map[string]context.Context{"inline": inlineCtx(), "pipelined": context.Background()} {
				cfg := tc.cfg(t)
				res, err := RunContext(ctx, cfg)
				if err != nil {
					t.Fatalf("%s: %v", placement, err)
				}
				checkIdentities(t, cfg, res)
				if got := digestOf(t, res); got != tc.want {
					t.Errorf("%s: digest %s, want %s", placement, got, tc.want)
				}
			}
		})
	}
}
