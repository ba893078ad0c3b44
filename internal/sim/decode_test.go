package sim

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/maps-sim/mapsim/internal/cache"
	"github.com/maps-sim/mapsim/internal/dram"
	"github.com/maps-sim/mapsim/internal/energy"
	"github.com/maps-sim/mapsim/internal/jsonread"
	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/secmem/engine"
	wspec "github.com/maps-sim/mapsim/internal/workload/spec"
)

// fullResult is a Result with every field, at every depth, non-zero
// (TestFullResultHasNoZeroField), with floats that encode in both of
// encoding/json's forms.
func fullResult() *Result {
	st := func(b uint64) cache.Stats {
		return cache.Stats{Accesses: b + 1, Hits: b + 2, Misses: b + 3, PartialMiss: b + 4,
			Inserts: b + 5, Evictions: b + 6, DirtyEvicts: b + 7}
	}
	kr := func(b uint64) KindResult {
		return KindResult{Accesses: b + 1, Hits: b + 2, Misses: b + 3, Bypassed: b + 4, MPKI: float64(b) + 0.25}
	}
	return &Result{
		Benchmark: "canneal", Instructions: 2_000_000, Cycles: 5_123_457, IPC: 0.3903778,
		LLC: st(100), LLCMPKI: 54.3125, Hier: [3]cache.Stats{st(1), st(20), st(100)}, DataMPKI: 54.3125,
		Meta: map[memlayout.Kind]KindResult{
			memlayout.KindCounter: kr(10), memlayout.KindHash: kr(20), memlayout.KindTree: kr(30)},
		MetaMPKI: 12.5, MetaMemPKI: 30.25, MetaHitRate: 0.31,
		TreeLevels: []KindResult{kr(40), kr(50)},
		Mem: engine.MemTraffic{DataReads: 1, DataWrites: 2, CounterReads: 3, CounterWrites: 4,
			HashReads: 5, HashWrites: 6, TreeReads: 7, TreeWrites: 8},
		PageReencryptions: 3, SpecWindowStalls: 4,
		DRAM:     dram.Stats{Reads: 9, Writes: 10, RowHits: 11, RowMisses: 12, EnergyPJ: 1.5e9, BusyCycles: 13},
		Energy:   energy.Account{CorePJ: 1e-7, SRAMPJ: 2.5e21, DRAMPJ: 3.75},
		EnergyPJ: 123456.789, ED2: 9.87e22,
		Timing:   PhaseTiming{Setup: 1, Warmup: 2, Measure: 3, Total: 6},
		Sharding: &struct{}{},
	}
}

// zeroLeaf returns the path of the first zero value at any depth of v,
// or "" when there is none. An empty struct counts as set.
func zeroLeaf(v reflect.Value, path string) string {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := zeroLeaf(v.Field(i), path+"."+v.Type().Field(i).Name); p != "" {
				return p
			}
		}
	case reflect.Array, reflect.Slice:
		if v.Len() == 0 {
			return path
		}
		for i := 0; i < v.Len(); i++ {
			if p := zeroLeaf(v.Index(i), path+"[]"); p != "" {
				return p
			}
		}
	case reflect.Map:
		if v.Len() == 0 {
			return path
		}
		for it := v.MapRange(); it.Next(); {
			if p := zeroLeaf(it.Value(), path+"[]"); p != "" {
				return p
			}
		}
	case reflect.Pointer:
		if v.IsNil() {
			return path
		}
		return zeroLeaf(v.Elem(), path)
	default:
		if v.IsZero() {
			return path
		}
	}
	return ""
}

// TestFullResultHasNoZeroField keeps fullResult complete: a field
// added to Result fails here until the fixture sets it, and then
// TestDecodeResultFastPath until the decoder reads it.
func TestFullResultHasNoZeroField(t *testing.T) {
	if p := zeroLeaf(reflect.ValueOf(fullResult()).Elem(), "Result"); p != "" {
		t.Fatalf("fullResult leaves %s zero", p)
	}
}

// TestDecodeResultFastPath: the canonical encoding of a fully
// populated Result is read whole by the fast path, and decodes to the
// value encoding/json gives.
func TestDecodeResultFastPath(t *testing.T) {
	want := fullResult()
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
	var ref resultJSON
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, want) || !reflect.DeepEqual(got, Result(ref)) {
		t.Fatalf("fast path decoded %+v, want %+v", got, *want)
	}
	var viaMethod Result
	if err := json.Unmarshal(data, &viaMethod); err != nil || !reflect.DeepEqual(&viaMethod, want) {
		t.Fatalf("json.Unmarshal through UnmarshalJSON: %v, %+v", err, viaMethod)
	}
}

// TestResultIsZeroSeesEveryField: a Result with any one top-level
// field set is not a zero target, so the fast path never overwrites
// what encoding/json would merge into.
func TestResultIsZeroSeesEveryField(t *testing.T) {
	full := reflect.ValueOf(fullResult()).Elem()
	if !(&Result{}).isZero() {
		t.Fatal("zero Result not seen as zero")
	}
	for i := 0; i < full.NumField(); i++ {
		var one Result
		reflect.ValueOf(&one).Elem().Field(i).Set(full.Field(i))
		if one.isZero() {
			t.Errorf("isZero ignores Result.%s", full.Type().Field(i).Name)
		}
	}
}

// TestDecodeResultFallsBack: every input outside the canonical shape
// is declined by the fast path and decoded by encoding/json, with its
// value and error.
func TestDecodeResultFallsBack(t *testing.T) {
	canon, err := json.Marshal(fullResult())
	if err != nil {
		t.Fatal(err)
	}
	c := string(canon)
	cases := map[string]string{
		"unknown key":       strings.Replace(c, `"cycles":`, `"cycles2":1,"cycles":`, 1),
		"case-variant key":  strings.Replace(c, `"cycles":`, `"Cycles":`, 1),
		"duplicate key":     strings.Replace(c, `"cycles":`, `"cycles":7,"cycles":`, 1),
		"duplicate map key": strings.Replace(c, `"meta":{`, `"meta":{"tree":{},`, 1),
		"null":              strings.Replace(c, `"sharding":{}`, `"sharding":null`, 1),
		"null member":       strings.Replace(c, `"benchmark":"canneal"`, `"benchmark":null`, 1),
		"escape":            strings.Replace(c, `"canneal"`, `"can\"neal"`, 1),
		"unicode escape":    strings.Replace(c, `"canneal"`, `"can\u006eeal"`, 1),
		"non-ASCII":         strings.Replace(c, `"canneal"`, `"cannéal"`, 1),
		"invalid UTF-8":     strings.Replace(c, `"canneal"`, "\"can\xffeal\"", 1),
		"leading zero":      strings.Replace(c, `"cycles":5123457`, `"cycles":05123457`, 1),
		"float into uint":   strings.Replace(c, `"cycles":5123457`, `"cycles":5123457.0`, 1),
		"negative uint":     strings.Replace(c, `"cycles":5123457`, `"cycles":-5123457`, 1),
		"uint overflow":     strings.Replace(c, `"cycles":5123457`, `"cycles":18446744073709551616`, 1),
		"float overflow":    strings.Replace(c, `"ipc":0.3903778`, `"ipc":1e400`, 1),
		"bad number":        strings.Replace(c, `"ipc":0.3903778`, `"ipc":.39`, 1),
		"hex float":         strings.Replace(c, `"ipc":0.3903778`, `"ipc":0x1p-2`, 1),
		"long array":        strings.Replace(c, `"hierarchy":[{`, `"hierarchy":[{"Hits":1},{`, 1),
		"interior space":    strings.Replace(c, `"cycles":`, `"cycles": `, 1),
		"trailing data":     c + `{}`,
		"trailing comma":    c[:len(c)-1] + `,}`,
		"truncated":         c[:len(c)/2],
		"empty":             "",
		"not an object":     `[1,2]`,
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			var v Result
			r := jsonread.New([]byte(in))
			resultFields.Read(r, &v)
			if r.End() {
				t.Fatalf("fast path accepted %s", in)
			}
			assertDecodesLikeJSON(t, []byte(in))
		})
	}
	t.Run("trailing whitespace", func(t *testing.T) {
		in := []byte(c + " \n")
		var v Result
		r := jsonread.New(in)
		resultFields.Read(r, &v)
		if !r.End() {
			t.Fatal("fast path declined trailing whitespace")
		}
		assertDecodesLikeJSON(t, in)
	})
	t.Run("non-zero target", func(t *testing.T) {
		got := Result{Benchmark: "mcf", Meta: map[memlayout.Kind]KindResult{memlayout.KindData: {Hits: 9}}}
		ref := resultJSON(got)
		ref.Meta = map[memlayout.Kind]KindResult{memlayout.KindData: {Hits: 9}}
		if err := got.UnmarshalJSON(canon); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(canon, &ref); err != nil {
			t.Fatal(err)
		}
		if len(got.Meta) != 4 || !reflect.DeepEqual(got, Result(ref)) {
			t.Fatalf("decoding into a non-zero Result did not merge as encoding/json does: %+v", got.Meta)
		}
	})
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
		t.Fatalf("UnmarshalJSON error %v, encoding/json %v, on %q", errGot, errRef, data)
	}
	if !reflect.DeepEqual(got, Result(ref)) {
		t.Fatalf("UnmarshalJSON decoded %+v, encoding/json %+v, on %q", got, ref, data)
	}
}

// decodeSeeds returns canonical encodings of real results: a secure
// run, an insecure run (no meta or tree_levels), and a spec-workload
// run whose benchmark is respelled as its front identity ("spec:" and
// the spec's canonical JSON), a string that needs escaped quotes.
func decodeSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	sp, err := wspec.Parse([]byte(specTestYAML))
	if err != nil {
		tb.Fatal(err)
	}
	cfgs := []Config{
		{Benchmark: "canneal", Instructions: 20_000, Secure: true, Meta: &metacache.Config{Size: 32 << 10}},
		{Benchmark: "mcf", Instructions: 20_000},
		{WorkloadSpec: sp, Instructions: 20_000, Secure: true, Meta: &metacache.Config{Size: 16 << 10}},
	}
	var seeds [][]byte
	for i, cfg := range cfgs {
		res, err := Run(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		if i == 2 {
			f, _ := FrontOf(cfg)
			res.Benchmark = f.Workload
		}
		data, err := json.Marshal(res)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	return seeds
}

// FuzzDecodeResult: on any input, UnmarshalJSON and encoding/json on
// the method-less alias agree on error-ness and on the value.
func FuzzDecodeResult(f *testing.F) {
	for _, s := range decodeSeeds(f) {
		f.Add(s)
	}
	full, _ := json.Marshal(fullResult())
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

// BenchmarkDecodeResult decodes one canonical secure Result with the
// fast path and with encoding/json, on the same bytes.
func BenchmarkDecodeResult(b *testing.B) {
	data := decodeSeeds(b)[0]
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

// TestDecodeSeedsTakeTheirPaths: real results' canonical encodings
// take the fast path, except the one whose benchmark needs escapes.
func TestDecodeSeedsTakeTheirPaths(t *testing.T) {
	for i, data := range decodeSeeds(t) {
		var v Result
		r := jsonread.New(data)
		resultFields.Read(r, &v)
		if fast, want := r.End(), i != 2; fast != want {
			t.Errorf("seed %d: fast path %v, want %v, on %s", i, fast, want, data)
		}
		assertDecodesLikeJSON(t, data)
	}
}
