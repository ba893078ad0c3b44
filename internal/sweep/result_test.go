package sweep

import (
	"encoding/json"
	"testing"

	"github.com/maps-sim/mapsim/internal/sim"
)

// aggregateByScan is Aggregate as it was first written, rendering a
// point's label once per distinct label of each axis: the reference
// TestAggregateMatchesScan holds the one-label-per-point version to.
func aggregateByScan(r *Result) []AxisGeomean {
	var out []AxisGeomean
	for _, axis := range AxisNames() {
		var labels []string
		seen := make(map[string]bool)
		for i := range r.Points {
			if l := r.Points[i].Label(axis); !seen[l] {
				seen[l] = true
				labels = append(labels, l)
			}
		}
		if len(labels) < 2 {
			continue
		}
		for _, label := range labels {
			var llc, meta, ipc, ed2 []float64
			n := 0
			for i := range r.Points {
				p := &r.Points[i]
				if p.Result == nil || p.Label(axis) != label {
					continue
				}
				n++
				llc = append(llc, p.Result.LLCMPKI)
				meta = append(meta, p.Result.MetaMPKI)
				ipc = append(ipc, p.Result.IPC)
				ed2 = append(ed2, p.Result.ED2)
			}
			out = append(out, AxisGeomean{Axis: axis, Label: label, Points: n,
				LLCMPKI: sim.GeomeanPositive(llc), MetaMPKI: sim.GeomeanPositive(meta),
				IPC: sim.GeomeanPositive(ipc), ED2: sim.GeomeanPositive(ed2)})
		}
	}
	return out
}

// TestAggregateMatchesScan: on a grid where every axis varies, with
// synthetic results that include zeros and missing points, Aggregate's
// geomeans encode byte-identically to the per-label scan's.
func TestAggregateMatchesScan(t *testing.T) {
	spec := Spec{
		Base: sim.Config{Instructions: testInstructions},
		Axes: Axes{
			Benchmarks:    []string{"canneal", "mcf"},
			Secure:        []bool{true, false},
			LLC:           IntAxis{Points: []int{1 << 20, 2 << 20}},
			Meta:          IntAxis{Points: []int{0, 16 << 10, 64 << 10}},
			Contents:      []string{"counters", "all"},
			Policies:      []string{"plru", "eva"},
			Partitions:    []string{"none", "static:2"},
			PartialWrites: []bool{false, true},
		},
	}
	points, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{}
	for i, p := range points {
		pr := PointResult{Point: p}
		if i%7 != 3 { // some points have no result
			f := float64(i%11) + 0.125*float64(i%5)
			pr.Result = &sim.Result{LLCMPKI: f + 1, MetaMPKI: f, IPC: 1 / (f + 2), ED2: f * f * 1e12}
		}
		res.Points = append(res.Points, pr)
	}
	for _, axis := range AxisNames() {
		if len(res.axisLabels(axis)) < 2 {
			t.Fatalf("axis %s does not vary", axis)
		}
	}
	res.Aggregate()
	got, _ := json.Marshal(res.Geomeans)
	want, _ := json.Marshal(aggregateByScan(res))
	if string(got) != string(want) {
		t.Fatalf("Aggregate geomeans differ from the per-label scan:\n got %s\nwant %s", got, want)
	}
}
