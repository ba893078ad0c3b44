package sim

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/maps-sim/mapsim/internal/cache/eva"
	"github.com/maps-sim/mapsim/internal/cache/policy"
	"github.com/maps-sim/mapsim/internal/faults"
	"github.com/maps-sim/mapsim/internal/hierarchy"
	"github.com/maps-sim/mapsim/internal/jobs"
	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/obs"
	"github.com/maps-sim/mapsim/internal/partition"
	"github.com/maps-sim/mapsim/internal/trace"
	"github.com/maps-sim/mapsim/internal/workload"
)

// Twin tests for run groups: RunGroup must reproduce, member by
// member, what RunContext computes for each config alone, with the
// group's back stage inline and pipelined.

// groupTwin runs every config alone (inline), then all of them as one
// group under ctx, and fails if a member's Result differs from its
// separate run apart from Timing or breaks an accounting identity
// (checkIdentities). mks are called once per run so stateful policies
// and partitions are never shared.
func groupTwin(t *testing.T, ctx context.Context, mks []func() Config) []*Result {
	t.Helper()
	alone := make([]*Result, len(mks))
	group := make([]Config, len(mks))
	for i, mk := range mks {
		r, err := RunContext(inlineCtx(), mk())
		if err != nil {
			t.Fatalf("member %d alone: %v", i, err)
		}
		alone[i] = r
		group[i] = mk()
	}
	got, err := RunGroup(ctx, group)
	if err != nil {
		t.Fatalf("group: %v", err)
	}
	if len(got) != len(mks) {
		t.Fatalf("group returned %d results for %d members", len(got), len(mks))
	}
	stripExecution(alone...)
	stripExecution(got...)
	for i := range got {
		if !reflect.DeepEqual(alone[i], got[i]) {
			t.Errorf("member %d diverges from its separate run\nalone: %+v\ngroup: %+v", i, alone[i], got[i])
		}
		checkIdentities(t, group[i], got[i])
	}
	return got
}

// groupCtxs names the two placements of a group's back stage. Tests
// using it call forcePipelined first, so a context without recorded
// concurrency pipelines.
func groupCtxs() map[string]context.Context {
	return map[string]context.Context{"inline": inlineCtx(), "pipelined": context.Background()}
}

func TestRunGroupMatchesSeparateRuns(t *testing.T) {
	forcePipelined(t)
	const n = testInstr / 2
	meta := func(size int) *metacache.Config { return &metacache.Config{Size: size, Ways: 8} }
	secure := func(bench string, org memlayout.Organization, m *metacache.Config) func() Config {
		return fixed(Config{Benchmark: bench, Instructions: n, Secure: true, Speculation: true, Org: org, Meta: m})
	}
	withPolicy := func(bench string, generic bool, mk func() metacache.Config) func() Config {
		return func() Config {
			m := mk()
			return Config{Benchmark: bench, Instructions: n, Secure: true, Meta: &m, DisableFastPath: generic}
		}
	}
	contents := []metacache.ContentPolicy{
		metacache.CountersOnly, metacache.HashesOnly, metacache.TreeOnly, metacache.CountersHashes,
		metacache.CountersTree, metacache.HashesTree, metacache.AllTypes,
	}
	var contentMembers []func() Config
	for _, c := range contents {
		contentMembers = append(contentMembers, fixed(Config{
			Benchmark: "canneal", Instructions: n, Secure: true,
			Meta: &metacache.Config{Size: 32 << 10, Ways: 8, Content: c},
		}))
	}
	contentMembers = append(contentMembers,
		fixed(Config{
			Benchmark: "canneal", Instructions: n, Secure: true,
			Meta: &metacache.Config{Size: 16 << 10, Ways: 8, PartialWrites: true},
		}),
		func() Config {
			return Config{Benchmark: "canneal", Instructions: n, Secure: true,
				Meta: &metacache.Config{Size: 32 << 10, Ways: 8, Partition: partition.NewStatic(3)}}
		},
		func() Config {
			return Config{Benchmark: "canneal", Instructions: n, Secure: true,
				Meta: &metacache.Config{Size: 32 << 10, Ways: 8, Partition: partition.NewDynamic(2, 6)}}
		},
	)
	policies := func(generic bool) []func() Config {
		return []func() Config{
			withPolicy("mcf", generic, func() metacache.Config { return metacache.Config{Size: 32 << 10, Ways: 8, Policy: policy.NewLRU()} }),
			withPolicy("mcf", generic, func() metacache.Config { return metacache.Config{Size: 32 << 10, Ways: 8, Policy: policy.NewPLRU()} }),
			withPolicy("mcf", generic, func() metacache.Config {
				return metacache.Config{Size: 32 << 10, Ways: 8, Policy: eva.New(eva.Config{})}
			}),
		}
	}
	mixes := map[string][]func() Config{
		"secure-insecure-nometa": {
			secure("canneal", memlayout.PoisonIvy, meta(64<<10)),
			fixed(Config{Benchmark: "canneal", Instructions: n}),
			secure("canneal", memlayout.PoisonIvy, nil),
		},
		"poisonivy-sgx": {
			secure("lbm", memlayout.PoisonIvy, meta(32<<10)),
			secure("lbm", memlayout.SGX, meta(32<<10)),
			secure("lbm", memlayout.SGX, nil),
		},
		"contents-partial-partition": contentMembers,
		"policies":                   policies(false),
		"policies-generic":           policies(true),
		"base-cpi-window": {
			fixed(Config{Benchmark: "milc", Instructions: n, BaseCPI: 1.5, Secure: true,
				Speculation: true, SpeculationWindow: 100, Meta: meta(32 << 10)}),
			fixed(Config{Benchmark: "milc", Instructions: n, BaseCPI: 1.5}),
		},
	}
	sp := parseSpecT(t)
	mixes["spec"] = []func() Config{
		fixed(Config{WorkloadSpec: sp, Instructions: n, Secure: true, Meta: meta(32 << 10)}),
		fixed(Config{WorkloadSpec: sp, Benchmark: sp.Name, Instructions: n}),
		fixed(Config{WorkloadSpec: sp, Instructions: n, Secure: true, Org: memlayout.SGX}),
	}
	for name, mks := range mixes {
		for placement, ctx := range groupCtxs() {
			t.Run(name+"/"+placement, func(t *testing.T) {
				t.Parallel()
				groupTwin(t, ctx, mks)
			})
		}
	}
}

// TestRunGroupTimingShares: every member reports the same 1/k share
// of the group's host time.
func TestRunGroupTimingShares(t *testing.T) {
	mk := fixed(Config{Benchmark: "canneal", Instructions: testInstr / 4, Secure: true, Meta: &metacache.Config{Size: 32 << 10, Ways: 8}})
	rs, err := RunGroup(inlineCtx(), []Config{mk(), mk(), mk()})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.Timing != rs[0].Timing {
			t.Errorf("member %d timing %+v, want member 0's %+v", i, r.Timing, rs[0].Timing)
		}
		tm := r.Timing
		if tm.Total <= 0 || tm.Setup+tm.Warmup+tm.Measure > tm.Total {
			t.Errorf("member %d timing %+v: phases must fit inside a positive total", i, tm)
		}
	}
}

// TestRunGroupTaps: each member's Tap sees exactly the metadata
// stream its separate run sees, in the same order, on both
// placements.
func TestRunGroupTaps(t *testing.T) {
	forcePipelined(t)
	mk := func(org memlayout.Organization, size int, dst *[]trace.Access) Config {
		return Config{
			Benchmark: "canneal", Instructions: testInstr / 4, Secure: true, Org: org,
			Meta: &metacache.Config{Size: size, Ways: 8},
			Tap:  func(a trace.Access) { *dst = append(*dst, a) },
		}
	}
	for placement, ctx := range groupCtxs() {
		t.Run(placement, func(t *testing.T) {
			var a1, a2, g1, g2 []trace.Access
			if _, err := RunContext(inlineCtx(), mk(memlayout.PoisonIvy, 32<<10, &a1)); err != nil {
				t.Fatal(err)
			}
			if _, err := RunContext(inlineCtx(), mk(memlayout.SGX, 16<<10, &a2)); err != nil {
				t.Fatal(err)
			}
			if _, err := RunGroup(ctx, []Config{mk(memlayout.PoisonIvy, 32<<10, &g1), mk(memlayout.SGX, 16<<10, &g2)}); err != nil {
				t.Fatal(err)
			}
			if len(a1) == 0 || !reflect.DeepEqual(a1, g1) {
				t.Errorf("member 0 tap: alone %d accesses, group %d (or order differs)", len(a1), len(g1))
			}
			if len(a2) == 0 || !reflect.DeepEqual(a2, g2) {
				t.Errorf("member 1 tap: alone %d accesses, group %d (or order differs)", len(a2), len(g2))
			}
		})
	}
}

// TestRunGroupProgress: every member's Progress ends where its
// separate run's does.
func TestRunGroupProgress(t *testing.T) {
	forcePipelined(t)
	mk := func(secure bool) Config {
		return Config{Benchmark: "canneal", Instructions: testInstr, Secure: secure, Progress: &obs.Progress{}}
	}
	alone := mk(true)
	if _, err := RunContext(inlineCtx(), alone); err != nil {
		t.Fatal(err)
	}
	members := []Config{mk(true), mk(false), {Benchmark: "canneal", Instructions: testInstr}}
	if _, err := RunGroup(context.Background(), members); err != nil {
		t.Fatal(err)
	}
	for i, m := range members[:2] {
		if m.Progress.Done() != alone.Progress.Done() {
			t.Errorf("member %d progress %d, want %d", i, m.Progress.Done(), alone.Progress.Done())
		}
		if s := m.Progress.Snapshot(); s.Fraction != 1 {
			t.Errorf("member %d progress %+v, want fraction 1", i, s)
		}
	}
}

// TestRunGroupCancellation cancels a pipelined group mid-run: the
// group returns ctx.Err() promptly and leaves no goroutine behind.
func TestRunGroupCancellation(t *testing.T) {
	forcePipelined(t)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		mk := fixed(Config{
			Benchmark: "canneal", Instructions: 500_000_000, Secure: true,
			Meta: &metacache.Config{Size: 64 << 10, Ways: 8},
		})
		_, err := RunGroup(ctx, []Config{mk(), mk(), {Benchmark: "canneal", Instructions: 500_000_000}})
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled group did not return")
	}
	awaitGoroutines(t, before)
}

// TestRunGroupStepFault: a sim.step fault mid-run fails the whole
// group on both placements, and the same group runs clean once the
// fault is disarmed.
func TestRunGroupStepFault(t *testing.T) {
	forcePipelined(t)
	defer faults.Reset()
	mks := []func() Config{
		fixed(Config{Benchmark: "canneal", Instructions: testInstr, Secure: true, Meta: &metacache.Config{Size: 64 << 10, Ways: 8}}),
		fixed(Config{Benchmark: "canneal", Instructions: testInstr, Secure: true, Org: memlayout.SGX}),
	}
	for placement, ctx := range groupCtxs() {
		before := runtime.NumGoroutine()
		if err := faults.P("sim.step").Arm(faults.Injection{Mode: faults.ModeErr}); err != nil {
			t.Fatal(err)
		}
		res, err := RunGroup(ctx, []Config{mks[0](), mks[1]()})
		if !errors.Is(err, faults.ErrInjected) || res != nil {
			t.Fatalf("%s: got %v (results %v), want the injected error and no results", placement, err, res)
		}
		faults.Reset()
		awaitGoroutines(t, before)
	}
	groupTwin(t, context.Background(), mks)
}

// TestRunGroupPanicIsolated: a member's Tap panicking on the
// pipelined back stage unwinds the group on the caller's goroutine,
// where a job pool recovers it as ErrPanic.
func TestRunGroupPanicIsolated(t *testing.T) {
	forcePipelined(t)
	before := runtime.NumGoroutine()
	pool := jobs.New(1, 1)
	defer pool.Shutdown(context.Background())
	calls := 0
	_, err := pool.RunBatch(context.Background(), 1, func(ctx context.Context) (any, error) {
		return RunGroup(ctx, []Config{
			{Benchmark: "canneal", Instructions: testInstr, Secure: true},
			{
				Benchmark: "canneal", Instructions: testInstr, Secure: true,
				Meta: &metacache.Config{Size: 32 << 10, Ways: 8},
				Tap: func(trace.Access) {
					if calls++; calls == 1000 {
						panic("member tap exploded")
					}
				},
			},
		})
	}, 0)
	if err == nil || !strings.Contains(err.Error(), jobs.ErrPanic.Error()) || !strings.Contains(err.Error(), "member tap exploded") {
		t.Fatalf("got %v, want a job failed with jobs.ErrPanic", err)
	}
	if n := pool.Stats().Panics; n != 1 {
		t.Fatalf("pool recovered %d panics, want 1", n)
	}
	pool.Shutdown(context.Background())
	awaitGoroutines(t, before)
}

// TestRunGroupRejectsMismatchedFronts: members must share member 0's
// front, and configs whose front has no identity never group.
func TestRunGroupRejectsMismatchedFronts(t *testing.T) {
	base := Config{Benchmark: "canneal", Instructions: 10_000, Secure: true}
	small := hierarchy.Default()
	small.L3Size = 1 << 20
	gen, err := workload.New("canneal")
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(c *Config){
		"benchmark":    func(c *Config) { c.Benchmark = "mcf" },
		"seed":         func(c *Config) { c.Seed = 7 },
		"instructions": func(c *Config) { c.Instructions = 20_000 },
		"warmup":       func(c *Config) { c.Warmup = 5 },
		"hierarchy":    func(c *Config) { c.Hierarchy = small },
		"fast-path":    func(c *Config) { c.DisableFastPath = true },
		"base-cpi":     func(c *Config) { c.BaseCPI = 2 },
		"l2-latency":   func(c *Config) { c.L2HitLatency = 20 },
		"l3-latency":   func(c *Config) { c.L3HitLatency = 50 },
		"workload":     func(c *Config) { c.Benchmark, c.Workload = "", gen },
		"trace":        func(c *Config) { c.Benchmark, c.TracePath = "", "x.mts" },
		"spec":         func(c *Config) { c.Benchmark, c.WorkloadSpec = "", parseSpecT(t) },
	}
	for name, mut := range cases {
		other := base
		mut(&other)
		if _, err := RunGroup(context.Background(), []Config{base, other}); err == nil || !strings.Contains(err.Error(), "front") {
			t.Errorf("%s: got %v, want a front mismatch", name, err)
		}
	}
	if _, err := RunGroup(context.Background(), nil); err == nil {
		t.Error("empty group accepted")
	}
	// Defaults count: a spelled-out default shares the front.
	spelled := base
	spelled.Seed, spelled.Warmup, spelled.Hierarchy, spelled.BaseCPI = 1, 1_000, hierarchy.Default(), 1
	if _, err := RunGroup(context.Background(), []Config{base, spelled}); err != nil {
		t.Errorf("explicit defaults rejected: %v", err)
	}
}

// TestFrontOf pins what is and is not part of a front's identity.
func TestFrontOf(t *testing.T) {
	base := Config{Benchmark: "lbm", Instructions: 10_000}
	f, ok := FrontOf(base)
	if !ok {
		t.Fatal("named benchmark has no front")
	}
	backOnly := base
	backOnly.Secure, backOnly.Org, backOnly.Speculation = true, memlayout.SGX, true
	backOnly.Meta = &metacache.Config{Size: 64 << 10, Ways: 8, Policy: policy.NewLRU()}
	backOnly.Tap = func(trace.Access) {}
	backOnly.Progress = &obs.Progress{}
	if g, ok := FrontOf(backOnly); !ok || g != f {
		t.Errorf("back-end fields changed the front: %+v vs %+v", g, f)
	}
	sp := parseSpecT(t)
	respelled := *sp
	respelled.MeanGap = 0 // the default, spelled differently
	a, aok := FrontOf(Config{WorkloadSpec: sp})
	b, bok := FrontOf(Config{WorkloadSpec: &respelled, Benchmark: sp.Name})
	if !aok || !bok || a != b {
		t.Errorf("equivalent specs have different fronts: %v %v", aok, bok)
	}
	if _, ok := FrontOf(Config{WorkloadSpec: sp, Benchmark: "other"}); ok {
		t.Error("conflicting Benchmark and spec name have a front")
	}
	if _, ok := FrontOf(Config{}); ok {
		t.Error("config without a workload has a front")
	}
}
