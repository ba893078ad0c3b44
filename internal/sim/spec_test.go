package sim

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/trace"
	"github.com/maps-sim/mapsim/internal/workload"
	wspec "github.com/maps-sim/mapsim/internal/workload/spec"
)

const specTestYAML = `
version: 1
name: mixed-web
mean_gap: 4
clients:
  - name: web
    rate_fraction: 0.6
    footprint: 256KB
    write_fraction: 0.2
    arrival:
      process: poisson
  - name: batch
    rate_fraction: 0.4
    footprint: 1MB
    write_fraction: 0.5
    sequential_run: 16
    arrival:
      process: gamma
      cv: 2.5
`

func parseSpecT(t *testing.T) *wspec.Spec {
	t.Helper()
	sp, err := wspec.Parse([]byte(specTestYAML))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// recordSpecTrace drains the spec's generator at the given seed into
// a streaming trace file covering at least budget instructions.
func recordSpecTrace(t *testing.T, sp *wspec.Spec, seed int64, budget uint64) string {
	t.Helper()
	gen, err := sp.Generator()
	if err != nil {
		t.Fatal(err)
	}
	gen.Reset(seed)
	path := filepath.Join(t.TempDir(), "w.mtrc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := trace.NewWriter(f, trace.StreamHeader{Name: gen.Name(), Footprint: gen.Footprint()}, false)
	if err != nil {
		t.Fatal(err)
	}
	var gapSum uint64
	var a workload.Access
	for gapSum < budget {
		gen.Next(&a)
		gapSum += uint64(a.Gap)
		if err := w.Write(trace.Record{Addr: a.Addr, Write: a.Write, Gap: a.Gap}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// stripExecution erases the wall-clock profile, which describes how
// a run executed rather than what it simulated, so two runs can be
// compared for simulated bit-identity.
func stripExecution(rs ...*Result) {
	for _, r := range rs {
		r.Timing = PhaseTiming{}
	}
}

// TestSpecReplayMatchesDirect records a spec workload's access stream
// at the sim's default seed and checks the trace replay reproduces
// the direct spec-driven run bit for bit. This pins the seed contract
// between mapstrace record-workload and sim.Run: the sim maps seed 0
// to 1, so the recording must too.
func TestSpecReplayMatchesDirect(t *testing.T) {
	sp := parseSpecT(t)
	// Budget covers warmup (Instructions/10) + measure + slack: the
	// replay must not wrap or the streams diverge.
	path := recordSpecTrace(t, sp, 1, 300_000)

	directCfg := Config{WorkloadSpec: sp, Instructions: 200_000, Secure: true, Speculation: true}
	direct, err := Run(directCfg)
	if err != nil {
		t.Fatal(err)
	}
	replayCfg := Config{TracePath: path, Instructions: 200_000, Secure: true, Speculation: true}
	replay, err := Run(replayCfg)
	if err != nil {
		t.Fatal(err)
	}
	checkIdentities(t, directCfg, direct)
	checkIdentities(t, replayCfg, replay)
	stripExecution(direct, replay)
	if !reflect.DeepEqual(direct, replay) {
		t.Errorf("replay diverged from direct run:\n direct: instrs=%d cycles=%d llc=%+v\n replay: instrs=%d cycles=%d llc=%+v",
			direct.Instructions, direct.Cycles, direct.LLC,
			replay.Instructions, replay.Cycles, replay.LLC)
	}
	if direct.Benchmark != "mixed-web" || replay.Benchmark != "mixed-web" {
		t.Errorf("benchmark labels = %q, %q, want both %q", direct.Benchmark, replay.Benchmark, "mixed-web")
	}
}

// TestSpecShardsBitIdentical is the pipeline twin test for
// spec-driven workloads (named for the epoch shards it once
// compared): the pipelined run must reproduce the inline run exactly.
func TestSpecShardsBitIdentical(t *testing.T) {
	forcePipelined(t)
	sp := parseSpecT(t)
	runTwin(t, fixed(Config{WorkloadSpec: sp, Instructions: 200_000, Secure: true, Speculation: true}))
}

// TestTraceReplayPipelinedBitIdentical: a trace replay (one file
// handle, one cursor) feeds the front stage like any generator, so
// it pipelines and must match its inline run bit for bit; runTwin
// also holds the pipelined Result to checkIdentities.
func TestTraceReplayPipelinedBitIdentical(t *testing.T) {
	forcePipelined(t)
	sp := parseSpecT(t)
	path := recordSpecTrace(t, sp, 1, 150_000)
	runTwin(t, fixed(Config{TracePath: path, Instructions: 100_000, Secure: true}))
}

func TestConfigSpecValidation(t *testing.T) {
	sp := parseSpecT(t)
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"spec and trace", Config{WorkloadSpec: sp, TracePath: "x.mtrc"}, "mutually exclusive"},
		{"bench and trace", Config{Benchmark: "canneal", TracePath: "x.mtrc"}, "mutually exclusive"},
		{"bench conflicts with spec name", Config{WorkloadSpec: sp, Benchmark: "canneal"}, "conflicts"},
		{"nothing set", Config{}, "required"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run() err = %v, want containing %q", err, tc.want)
			}
		})
	}

	// Benchmark equal to the spec name is fine — that is what
	// fillDefaults produces on the round trip through the wire format.
	cfg := Config{WorkloadSpec: sp, Benchmark: sp.Name, Instructions: 50_000}
	if _, err := Run(cfg); err != nil {
		t.Fatalf("Run(spec with matching benchmark) = %v", err)
	}
}

func TestCanonicalRejectsTracePath(t *testing.T) {
	cfg := Config{TracePath: "/tmp/some.mtrc", Instructions: 1000}
	if _, err := cfg.Canonical(); err == nil || !strings.Contains(err.Error(), "machine-local") {
		t.Fatalf("Canonical() err = %v, want machine-local rejection", err)
	}
}

func TestCanonicalNormalizesSpec(t *testing.T) {
	sp := parseSpecT(t)
	cfg := Config{WorkloadSpec: sp, Instructions: 50_000}
	c, err := cfg.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c.WorkloadSpec == sp {
		t.Error("Canonical() aliased the caller's spec instead of canonicalizing a copy")
	}
	if c.WorkloadSpec.Version != 1 || c.Benchmark != sp.Name {
		t.Errorf("canonical spec version=%d benchmark=%q, want 1/%q", c.WorkloadSpec.Version, c.Benchmark, sp.Name)
	}
	// An invalid spec must be rejected at canonicalization time, not
	// at simulation time — remote daemons hash before they run.
	bad := *sp
	bad.Clients = nil
	cfg = Config{WorkloadSpec: &bad}
	if _, err := cfg.Canonical(); err == nil {
		t.Error("Canonical() accepted a spec with no clients")
	}
}

// TestTraceAddressOutOfRange: a trace record at or above 2^62 would
// collide with the event encoding's flag bits, so the run must fail
// with errAddrRange, inline and pipelined, rather than simulate a
// corrupted stream (a stats reset mid-run, a phantom writeback).
func TestTraceAddressOutOfRange(t *testing.T) {
	forcePipelined(t)
	for _, addr := range []uint64{markBit, wbBit | 0x40} {
		path := filepath.Join(t.TempDir(), "bad.mtrc")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w, err := trace.NewWriter(f, trace.StreamHeader{Name: "crafted", Footprint: 1 << 20}, false)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 1000; i++ {
			a := i * memlayout.BlockSize
			if i == 500 {
				a = addr
			}
			if err := w.Write(trace.Record{Addr: a, Gap: 10}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		f.Close()
		before := runtime.NumGoroutine()
		for name, ctx := range map[string]context.Context{"inline": inlineCtx(), "pipelined": context.Background()} {
			for _, secure := range []bool{false, true} {
				_, err := RunContext(ctx, Config{TracePath: path, Instructions: 20_000, Secure: secure})
				if !errors.Is(err, errAddrRange) {
					t.Errorf("%#x %s secure=%v: got %v, want errAddrRange", addr, name, secure, err)
				}
			}
		}
		awaitGoroutines(t, before)
	}
}
