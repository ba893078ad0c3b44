package server

import (
	"strings"
	"testing"

	"github.com/maps-sim/mapsim/internal/dram"
	"github.com/maps-sim/mapsim/internal/hierarchy"
	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/results"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/sweep"
	"github.com/maps-sim/mapsim/internal/trace"
	"github.com/maps-sim/mapsim/internal/workload"
)

// TestSpecFromSimRoundTrip is the fleet's correctness keystone: every
// wire-expressible config must decode back to its exact content
// address, or a remote worker would simulate — and store — something
// subtly different from what the coordinator asked for.
func TestSpecFromSimRoundTrip(t *testing.T) {
	cases := []struct {
		name      string
		cfg       sim.Config
		policy    string
		partition string
	}{
		{name: "minimal", cfg: sim.Config{Benchmark: "canneal", Instructions: 10_000, Secure: true}},
		{name: "insecure", cfg: sim.Config{Benchmark: "fft", Instructions: 10_000}},
		{name: "meta defaults", cfg: sim.Config{
			Benchmark: "canneal", Instructions: 10_000, Secure: true,
			Meta: &metacache.Config{Size: 64 << 10, Ways: 8, Content: metacache.AllTypes},
		}},
		{name: "meta zero content", cfg: sim.Config{
			// Content 0 means AllTypes at materialization time; the wire
			// must preserve that equivalence, not change the hash.
			Benchmark: "libquantum", Instructions: 10_000, Secure: true,
			Meta: &metacache.Config{Size: 16 << 10, Ways: 8},
		}},
		{name: "counters with partial writes", cfg: sim.Config{
			Benchmark: "canneal", Instructions: 10_000, Secure: true,
			Meta: &metacache.Config{Size: 32 << 10, Ways: 4, Content: metacache.CountersOnly, PartialWrites: true},
		}},
		{name: "policy and partition names", cfg: sim.Config{
			Benchmark: "canneal", Instructions: 10_000, Secure: true,
			Meta: &metacache.Config{Size: 64 << 10, Ways: 8, Content: metacache.CountersHashes},
		}, policy: "srrip", partition: "dynamic"},
		{name: "sgx org with speculation", cfg: sim.Config{
			Benchmark: "fft", Instructions: 10_000, Secure: true,
			Org: memlayout.SGX, Speculation: true, SpeculationWindow: 32,
		}},
		{name: "custom hierarchy", cfg: sim.Config{
			Benchmark: "canneal", Instructions: 10_000, Secure: true,
			Hierarchy: hierarchy.Config{
				L1Size: 32 << 10, L1Ways: 8,
				L2Size: 256 << 10, L2Ways: 8,
				L3Size: 4 << 20, L3Ways: 16,
			},
		}},
		{name: "seed warmup cpi", cfg: sim.Config{
			Benchmark: "canneal", Instructions: 10_000, Warmup: 5_000,
			Seed: 42, Secure: true, BaseCPI: 1.5,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := results.PointKeyFor(tc.cfg, tc.policy, tc.partition)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := SpecFromSim(tc.cfg, tc.policy, tc.partition)
			if err != nil {
				t.Fatal(err)
			}
			back, err := spec.ToSim()
			if err != nil {
				t.Fatal(err)
			}
			pol, part, err := spec.pointNames()
			if err != nil {
				t.Fatal(err)
			}
			got, err := results.PointKeyFor(back, pol, part)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("round trip moved the content address:\n  direct: %s\n  wire:   %s\nspec: %+v", want, got, spec)
			}
		})
	}
}

// TestSpecFromSimRejectsInexpressible: configs the wire cannot carry
// faithfully must be refused, never approximated.
func TestSpecFromSimRejectsInexpressible(t *testing.T) {
	base := sim.Config{Benchmark: "canneal", Instructions: 10_000, Secure: true}
	pol, _ := sweep.NewPolicy("lru")
	cases := []struct {
		name string
		mut  func(c *sim.Config)
		want string
	}{
		{"workload", func(c *sim.Config) { c.Workload = workload.MustNew("canneal") }, "Workload"},
		{"tap", func(c *sim.Config) { c.Tap = func(trace.Access) {} }, "Tap"},
		{"custom dram", func(c *sim.Config) { c.DRAM = dram.Config{Banks: 16} }, "DRAM"},
		{"hit latency", func(c *sim.Config) { c.L2HitLatency = 12 }, "hit latencies"},
		{"stateful policy", func(c *sim.Config) {
			c.Meta = &metacache.Config{Size: 16 << 10, Ways: 8, Policy: pol}
		}, "stateful"},
		{"names without meta", nil, "metadata cache"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			policy := ""
			if tc.mut != nil {
				tc.mut(&cfg)
			} else {
				policy = "lru" // names without a metadata cache
			}
			_, err := SpecFromSim(cfg, policy, "")
			if err == nil {
				t.Fatal("want rejection")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestConfigSpecOrgNormalized: the wire's org, like its policy,
// partition and content names, is case- and space-insensitive, and a
// respelled org keys the same point as the plain one.
func TestConfigSpecOrgNormalized(t *testing.T) {
	key := func(org string) results.Key {
		t.Helper()
		p, err := ConfigSpec{Benchmark: "canneal", Instructions: 10_000, Org: org}.Point()
		if err != nil {
			t.Fatalf("org %q: %v", org, err)
		}
		if p.Config.Org != memlayout.SGX {
			t.Fatalf("org %q: got organization %v, want SGX", org, p.Config.Org)
		}
		k, err := sweep.PointKey(p)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	want := key("sgx")
	for _, org := range []string{"SGX", " Sgx "} {
		if got := key(org); got != want {
			t.Errorf("org %q keys %s, want %s (as \"sgx\")", org, got, want)
		}
	}
}
