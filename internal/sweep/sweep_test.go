package sweep

import (
	"reflect"
	"testing"

	"github.com/maps-sim/mapsim/internal/cache/policy"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/sim"
)

const testInstructions = 20_000

// fig1Spec is the miniature Figure 1 grid the tests sweep: two
// benchmarks × two metadata sizes × two content policies, secure.
func fig1Spec() Spec {
	return Spec{
		Base: sim.Config{
			Instructions: testInstructions,
			Secure:       true,
			Speculation:  true,
		},
		Axes: Axes{
			Benchmarks: []string{"canneal", "libquantum"},
			Meta:       IntAxis{Points: []int{16 << 10, 64 << 10}},
			Contents:   []string{"counters", "all"},
		},
	}
}

// Fig1Spec exports fig1Spec to the external tests in run_test.go.
var Fig1Spec = fig1Spec

func TestExpandDeterministic(t *testing.T) {
	spec := fig1Spec()
	a, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 8 {
		t.Fatalf("got %d points, want 8", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two Expand calls disagree")
	}
	// Grid order: benchmark outermost, then meta, then content.
	want := []struct {
		bench   string
		meta    int
		content string
	}{
		{"canneal", 16 << 10, "counters"},
		{"canneal", 16 << 10, "all"},
		{"canneal", 64 << 10, "counters"},
		{"canneal", 64 << 10, "all"},
		{"libquantum", 16 << 10, "counters"},
		{"libquantum", 16 << 10, "all"},
		{"libquantum", 64 << 10, "counters"},
		{"libquantum", 64 << 10, "all"},
	}
	for i, w := range want {
		p := a[i]
		if p.Index != i || p.Benchmark != w.bench || p.MetaBytes != w.meta || p.Content != w.content {
			t.Errorf("point %d: got {%d %s %d %s}, want {%d %s %d %s}",
				i, p.Index, p.Benchmark, p.MetaBytes, p.Content, i, w.bench, w.meta, w.content)
		}
		if p.Config.Benchmark != w.bench || p.Config.Meta == nil || p.Config.Meta.Size != w.meta {
			t.Errorf("point %d: config not materialized from coordinates", i)
		}
	}
}

func TestIntAxisExpand(t *testing.T) {
	pts, err := IntAxis{Min: 16 << 10, Max: 2 << 20}.expand()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20}
	if !reflect.DeepEqual(pts, want) {
		t.Fatalf("doubling range: got %v, want %v", pts, want)
	}
	pts, err = IntAxis{Min: 1 << 10, Max: 64 << 10, Factor: 4}.expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pts, []int{1 << 10, 4 << 10, 16 << 10, 64 << 10}) {
		t.Fatalf("factor-4 range: got %v", pts)
	}
	for name, axis := range map[string]IntAxis{
		"points+range":   {Points: []int{1024}, Min: 1024, Max: 2048},
		"negative point": {Points: []int{-1}},
		"inverted range": {Min: 2048, Max: 1024},
		"factor 1":       {Min: 1024, Max: 2048, Factor: 1},
	} {
		if _, err := axis.expand(); err == nil {
			t.Errorf("%s: expand accepted invalid axis", name)
		}
	}
}

func TestExpandRejects(t *testing.T) {
	base := sim.Config{Instructions: testInstructions, Secure: true}
	cases := map[string]Spec{
		"no benchmark":     {Base: base},
		"unknown bench":    {Base: base, Axes: Axes{Benchmarks: []string{"nope"}}},
		"content w/o meta": {Base: base, Axes: Axes{Benchmarks: []string{"canneal"}, Contents: []string{"all"}}},
		"policy w/o meta":  {Base: base, Axes: Axes{Benchmarks: []string{"canneal"}, Policies: []string{"lru"}}},
		"unknown policy": {Base: base, Axes: Axes{Benchmarks: []string{"canneal"},
			Meta: IntAxis{Points: []int{64 << 10}}, Policies: []string{"mru"}}},
		"bad partition": {Base: base, Axes: Axes{Benchmarks: []string{"canneal"},
			Meta: IntAxis{Points: []int{64 << 10}}, Partitions: []string{"static:0"}}},
		"bad content": {Base: base, Axes: Axes{Benchmarks: []string{"canneal"},
			Meta: IntAxis{Points: []int{64 << 10}}, Contents: []string{"everything"}}},
		"zero llc": {Base: base, Axes: Axes{Benchmarks: []string{"canneal"},
			LLC: IntAxis{Points: []int{0}}}},
		"stateful base": {Base: sim.Config{Instructions: testInstructions, Benchmark: "canneal",
			Meta: &metacache.Config{Size: 64 << 10, Ways: 8, Policy: policy.NewLRU()}}},
	}
	for name, spec := range cases {
		if _, err := spec.Expand(); err == nil {
			t.Errorf("%s: Expand accepted invalid spec", name)
		}
	}
}

func TestPolicyPartitionConstructors(t *testing.T) {
	for _, name := range PolicyNames() {
		if _, err := NewPolicy(name); err != nil {
			t.Errorf("NewPolicy(%q): %v", name, err)
		}
	}
	// Non-default names build real instances, never the nil default.
	for _, name := range []string{"fifo", "random", "brrip"} {
		if p, err := NewPolicy(name); err != nil || p == nil {
			t.Errorf("NewPolicy(%q) = %v, %v; want a fresh instance", name, p, err)
		}
	}
	if p, err := NewPolicy(""); err != nil || p != nil {
		t.Errorf("NewPolicy(\"\") = %v, %v; want nil, nil", p, err)
	}
	for _, name := range []string{"none", "static:2", "dynamic", ""} {
		if _, err := NewPartition(name); err != nil {
			t.Errorf("NewPartition(%q): %v", name, err)
		}
	}
	for _, name := range []string{"static:x", "static:-1", "banana"} {
		if _, err := NewPartition(name); err == nil {
			t.Errorf("NewPartition(%q) accepted", name)
		}
	}
}

// TestGroups pins the grouping rule: points sharing a front split
// into near-equal groups of min(MaxGroup, ceil(n/max(slots, 2))),
// points with different fronts never share a group, and groups keep
// grid order.
func TestGroups(t *testing.T) {
	grid := func(benches []string, llcs []int, metas int) []Point {
		t.Helper()
		var sizes []int
		for i := 0; i < metas; i++ {
			sizes = append(sizes, (4<<10)<<i)
		}
		pts, err := Spec{
			Base: sim.Config{Instructions: testInstructions},
			Axes: Axes{
				Benchmarks: benches, Secure: []bool{true, false},
				LLC: IntAxis{Points: llcs}, Meta: IntAxis{Points: sizes},
			},
		}.Expand()
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	sizes := func(groups [][]Point) []int {
		var out []int
		for _, g := range groups {
			out = append(out, len(g))
		}
		return out
	}
	cases := []struct {
		name  string
		pts   []Point
		slots int
		want  []int
	}{
		{"16-on-2-slots", grid([]string{"lbm"}, nil, 8), 2, []int{8, 8}},
		{"16-on-1-slot", grid([]string{"lbm"}, nil, 8), 1, []int{8, 8}},
		{"16-on-16-slots", grid([]string{"lbm"}, nil, 8), 16, []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}},
		{"capped", grid([]string{"lbm"}, nil, 40), 2, []int{16, 16, 16, 16, 16}},
		{"uneven", grid([]string{"lbm"}, nil, 5), 4, []int{2, 3, 2, 3}},
		{"two-fronts", grid([]string{"lbm", "mcf"}, nil, 2), 1, []int{2, 2, 2, 2}},
		{"llc-splits-fronts", grid([]string{"lbm"}, []int{1 << 20, 2 << 20}, 2), 1, []int{2, 2, 2, 2}},
	}
	for _, tc := range cases {
		groups := Groups(tc.pts, tc.slots)
		if got := sizes(groups); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: group sizes %v, want %v", tc.name, got, tc.want)
		}
		seen := map[int]bool{}
		last := -1
		for _, g := range groups {
			if g[0].Index <= last {
				t.Errorf("%s: groups out of grid order", tc.name)
			}
			last = g[0].Index
			f, _ := sim.FrontOf(g[0].Config)
			for i, p := range g {
				if seen[p.Index] {
					t.Errorf("%s: point %d in two groups", tc.name, p.Index)
				}
				seen[p.Index] = true
				if i > 0 && p.Index <= g[i-1].Index {
					t.Errorf("%s: members out of grid order", tc.name)
				}
				if pf, _ := sim.FrontOf(p.Config); pf != f {
					t.Errorf("%s: point %d grouped with a different front", tc.name, p.Index)
				}
			}
		}
		if len(seen) != len(tc.pts) {
			t.Errorf("%s: %d of %d points grouped", tc.name, len(seen), len(tc.pts))
		}
	}
}
