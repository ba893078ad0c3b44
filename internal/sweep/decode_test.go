package sweep

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/maps-sim/mapsim/internal/jsonread"
	"github.com/maps-sim/mapsim/internal/sim"
	wspec "github.com/maps-sim/mapsim/internal/workload/spec"
)

// runGrid simulates every point of spec directly and returns the
// aggregated Result, as the fleet would serve it.
func runGrid(tb testing.TB, spec Spec) *Result {
	tb.Helper()
	points, err := spec.Expand()
	if err != nil {
		tb.Fatal(err)
	}
	res := &Result{Total: len(points), Done: len(points), Wall: time.Second}
	for _, p := range points {
		cfg, err := Instantiate(p)
		if err != nil {
			tb.Fatal(err)
		}
		r, err := sim.Run(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		res.Points = append(res.Points, PointResult{Point: p, Result: r, Worker: "local"})
	}
	res.Aggregate()
	return res
}

// decodeSeeds returns canonical encodings of served sweeps: a secure
// grid, an insecure one (results without meta or tree_levels), and a
// spec-workload one whose benchmark labels are respelled as the
// workload's front identity ("spec:" and the spec's canonical JSON),
// strings that need escaped quotes.
func decodeSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	sp, err := wspec.Parse([]byte(`{"version":1,"name":"mixed","clients":[{"name":"web","rate_fraction":1,"footprint":"256KB","write_fraction":0.2,"arrival":{"process":"poisson"}}]}`))
	if err != nil {
		tb.Fatal(err)
	}
	secure := fig1Spec()
	secure.Axes.Benchmarks = []string{"canneal"}
	insecure := Spec{Base: sim.Config{Instructions: testInstructions},
		Axes: Axes{Benchmarks: []string{"mcf", "lbm"}}}
	specGrid := Spec{Base: sim.Config{Instructions: testInstructions, Secure: true},
		Axes: Axes{WorkloadSpecs: []*wspec.Spec{sp}, Meta: IntAxis{Points: []int{16 << 10, 64 << 10}}}}
	var seeds [][]byte
	for i, spec := range []Spec{secure, insecure, specGrid} {
		res := runGrid(tb, spec)
		if i == 2 {
			for j := range res.Points {
				f, _ := sim.FrontOf(res.Points[j].Config)
				res.Points[j].Benchmark = f.Workload
				res.Points[j].Result.Benchmark = f.Workload
			}
		}
		data, err := json.Marshal(res)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	return seeds
}

// fullResult is a sweep Result with every encoded field set, at every
// depth down to each point's sim.Result (whose own fields
// internal/sim's TestFullResultHasNoZeroField covers).
func fullResult(tb testing.TB) *Result {
	tb.Helper()
	run, err := sim.Run(sim.Config{Benchmark: "canneal", Instructions: testInstructions})
	if err != nil {
		tb.Fatal(err)
	}
	return &Result{
		Points: []PointResult{{
			Point: Point{Index: 3, Benchmark: "canneal", Secure: true, LLCBytes: 2 << 20, MetaBytes: 64 << 10,
				Content: "all", Policy: "eva", Partition: "static:2", PartialWrites: true},
			Result: run, Cached: true, Worker: "http://127.0.0.1:8792",
		}},
		Total: 4, Done: 3, Deduped: 2,
		Geomeans: []AxisGeomean{{Axis: "meta", Label: "64KB", Points: 2,
			LLCMPKI: 54.25, MetaMPKI: 1e-7, IPC: 0.5, ED2: 9.87e22}},
		Wall: 1500 * time.Millisecond,
	}
}

// encodedZero returns the path of the first zero value at any depth of
// v that encoding/json writes, or "". A *sim.Result counts as set when
// it is non-nil.
func encodedZero(v reflect.Value, path string) string {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.Tag.Get("json") != "-" {
				if p := encodedZero(v.Field(i), path+"."+f.Name); p != "" {
					return p
				}
			}
		}
	case reflect.Slice:
		if v.Len() == 0 {
			return path
		}
		for i := 0; i < v.Len(); i++ {
			if p := encodedZero(v.Index(i), path+"[]"); p != "" {
				return p
			}
		}
	case reflect.Pointer:
		if v.IsNil() {
			return path
		}
	default:
		if v.IsZero() {
			return path
		}
	}
	return ""
}

// TestDecodeSweepResultFastPath: the canonical encoding of a fully
// populated sweep Result is read whole by the fast path and decodes to
// the value encoding/json gives. A field added to Result, PointResult,
// Point or AxisGeomean fails here until the fixture sets it and the
// decoder reads it.
func TestDecodeSweepResultFastPath(t *testing.T) {
	want := fullResult(t)
	if p := encodedZero(reflect.ValueOf(want).Elem(), "Result"); p != "" {
		t.Fatalf("fullResult leaves %s zero", p)
	}
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got Result
	r := jsonread.New(data)
	resultFields.Read(r, &got)
	if !r.End() {
		t.Fatalf("fast path declined the canonical encoding %s", data)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("fast path decoded %+v, want %+v", got, *want)
	}
	assertDecodesLikeJSON(t, data)
}

// TestDecodeSweepSeedsTakeTheirPaths: served sweeps take the fast
// path, except the one whose labels need escapes; either way the
// value is encoding/json's.
func TestDecodeSweepSeedsTakeTheirPaths(t *testing.T) {
	for i, data := range decodeSeeds(t) {
		var v Result
		r := jsonread.New(data)
		resultFields.Read(r, &v)
		if fast, want := r.End(), i != 2; fast != want {
			t.Errorf("seed %d: fast path %v, want %v", i, fast, want)
		}
		assertDecodesLikeJSON(t, data)
	}
	full, _ := json.Marshal(fullResult(t))
	for name, in := range map[string]string{
		"null result":     `{"points":[{"index":0,"benchmark":"mcf","secure":false,"result":null}],"total":1,"done":0,"deduped":0,"wall_ns":0}`,
		"empty arrays":    `{"points":[],"total":0,"done":0,"deduped":0,"geomeans":[],"wall_ns":0}`,
		"nested fallback": strings.Replace(string(full), `"cycles":`, `"cycles": `, 1),
		"nested error":    strings.Replace(string(full), `"cycles":`, `"cycles":-`, 1),
	} {
		t.Run(name, func(t *testing.T) { assertDecodesLikeJSON(t, []byte(in)) })
	}
	var merged Result
	merged.Total = 99
	if err := merged.UnmarshalJSON(full); err != nil || merged.Total != 4 || len(merged.Points) != 1 {
		t.Fatalf("non-zero target: %v, %+v", err, merged)
	}
}

// assertDecodesLikeJSON checks UnmarshalJSON against encoding/json on
// the method-less alias: the same error (or none) and the same value.
func assertDecodesLikeJSON(t *testing.T, data []byte) {
	t.Helper()
	var got Result
	errGot := got.UnmarshalJSON(data)
	var ref resultJSON
	errRef := json.Unmarshal(data, &ref)
	if (errGot == nil) != (errRef == nil) || errGot != nil && errGot.Error() != errRef.Error() {
		t.Fatalf("UnmarshalJSON error %v, encoding/json %v", errGot, errRef)
	}
	if !reflect.DeepEqual(got, Result(ref)) {
		t.Fatalf("UnmarshalJSON decoded %+v, encoding/json %+v", got, ref)
	}
}

// FuzzDecodeSweepResult: on any input, UnmarshalJSON and encoding/json
// on the method-less alias agree on error-ness and on the value.
func FuzzDecodeSweepResult(f *testing.F) {
	for _, s := range decodeSeeds(f) {
		f.Add(s)
	}
	full, _ := json.Marshal(fullResult(f))
	f.Add(full)
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Result
		errGot := got.UnmarshalJSON(data)
		var ref resultJSON
		errRef := json.Unmarshal(data, &ref)
		if (errGot == nil) != (errRef == nil) {
			t.Fatalf("UnmarshalJSON error %v, encoding/json %v", errGot, errRef)
		}
		if !reflect.DeepEqual(got, Result(ref)) {
			t.Fatalf("UnmarshalJSON decoded %+v, encoding/json %+v", got, ref)
		}
	})
}

// BenchmarkDecodeSweepResult decodes one served 16-point sweep (two
// benchmarks × two metadata sizes × two contents × two policies) with
// the fast path and with encoding/json, on the same bytes.
func BenchmarkDecodeSweepResult(b *testing.B) {
	spec := fig1Spec()
	spec.Axes.Policies = []string{"plru", "eva"}
	data, err := json.Marshal(runGrid(b, spec))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			var v Result
			if err := v.UnmarshalJSON(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			var v resultJSON
			if err := json.Unmarshal(data, &v); err != nil {
				b.Fatal(err)
			}
		}
	})
}
