// The bugfix-audit pin for generator state surviving re-seeding:
// every named workload, the configurable synthetic, and spec-driven
// multi-client generators must replay byte-identical streams after
// Reset(seed) — even with a differently-seeded drain in between.
// External test package so the spec package (which imports workload)
// can join the table.
package workload_test

import (
	"testing"

	"github.com/maps-sim/mapsim/internal/workload"
	"github.com/maps-sim/mapsim/internal/workload/spec"
)

// auditGenerators returns every generator kind under audit, by label.
func auditGenerators(t *testing.T) map[string]workload.Generator {
	t.Helper()
	gens := make(map[string]workload.Generator)
	for _, name := range workload.Names() {
		gens[name] = workload.MustNew(name)
	}
	syn, err := workload.NewSynthetic(workload.SyntheticConfig{
		Name:           "custom",
		FootprintBytes: 1 << 20,
		MeanGap:        3,
		WriteFraction:  0.25,
		HotBytes:       64 << 10,
		HotFraction:    0.8,
		SequentialRun:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	gens["synthetic/custom"] = syn

	sp, err := spec.Parse([]byte(specYAML))
	if err != nil {
		t.Fatal(err)
	}
	mc, err := sp.Generator()
	if err != nil {
		t.Fatal(err)
	}
	gens["spec/"+mc.Name()] = mc
	return gens
}

const specYAML = `
name: audit-mix
mean_gap: 4
clients:
  - name: web
    rate_fraction: 0.5
    arrival:
      process: poisson
    footprint: 256KB
    write_fraction: 0.1
    hot_bytes: 16KB
    hot_fraction: 0.9
  - name: batch
    rate_fraction: 0.3
    arrival:
      process: gamma
      cv: 2.5
    footprint: 1MB
    write_fraction: 0.5
    sequential_run: 16
  - name: scan
    rate_fraction: 0.2
    arrival:
      process: fixed
    footprint: 512KB
    stream: true
`

func drain(g workload.Generator, n int) []workload.Access {
	out := make([]workload.Access, n)
	for i := range out {
		g.Next(&out[i])
	}
	return out
}

func sameStream(t *testing.T, label string, a, b []workload.Access) {
	t.Helper()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: access %d = %+v vs %+v; stream not reproducible", label, i, a[i], b[i])
		}
	}
}

// Reset(seed); drain; Reset(other); drain; Reset(seed) must replay
// the first stream byte-for-byte: no state may survive re-seeding.
func TestResetReplaysByteIdenticalStreams(t *testing.T) {
	const n = 4096
	for label, g := range auditGenerators(t) {
		t.Run(label, func(t *testing.T) {
			g.Reset(7)
			first := drain(g, n)
			g.Reset(13) // interleave a different seed to flush out sticky state
			drain(g, n/3)
			g.Reset(7)
			sameStream(t, label, first, drain(g, n))
		})
	}
}

// Distinct seeds must produce distinct streams (a generator that
// ignores its seed would trivially pass the replay test).
func TestResetSeedsDiffer(t *testing.T) {
	const n = 4096
	for label, g := range auditGenerators(t) {
		t.Run(label, func(t *testing.T) {
			g.Reset(7)
			a := drain(g, n)
			g.Reset(13)
			b := drain(g, n)
			for i := range a {
				if a[i] != b[i] {
					return
				}
			}
			t.Fatalf("%s: seeds 7 and 13 produced identical %d-access streams", label, n)
		})
	}
}
