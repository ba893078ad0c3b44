package jsonread

import (
	"encoding/json"
	"testing"
)

// TestScalarsMatchEncodingJSON: each scalar reader accepts an input
// only when encoding/json decodes it into the same Go type to the same
// value, and never accepts what encoding/json rejects.
func TestScalarsMatchEncodingJSON(t *testing.T) {
	inputs := []string{
		`0`, `7`, `-0`, `-7`, `01`, `-01`, `00`, `-`, `+1`, ``, ` 1`,
		`18446744073709551615`, `18446744073709551616`, `99999999999999999999`,
		`9223372036854775807`, `9223372036854775808`, `-9223372036854775808`, `-9223372036854775809`,
		`1.5`, `-1.5`, `1.`, `.5`, `1e3`, `1E+3`, `1e-7`, `1e`, `1e+`, `0.000`, `1.0e-310`,
		`1e400`, `-1e400`, `123456789012345678901`, `0x10`, `Infinity`, `NaN`, `1_0`,
		`true`, `false`, `tru`, `null`, `"a"`, `"a\"b"`, `"é"`, "\"\x01\"", `"a`,
	}
	check := func(t *testing.T, in, kind string, ok bool, got, want any, refErr error) {
		t.Helper()
		if ok && (refErr != nil || got != want) {
			t.Errorf("%s %q: fast path read %v, encoding/json %v (err %v)", kind, in, got, want, refErr)
		}
	}
	for _, in := range inputs {
		data := []byte(in)
		{
			r := New(data)
			got := r.Uint64()
			var want uint64
			err := json.Unmarshal(data, &want)
			check(t, in, "uint64", r.End(), got, want, err)
		}
		{
			r := New(data)
			got := r.Int64()
			var want int64
			err := json.Unmarshal(data, &want)
			check(t, in, "int64", r.End(), got, want, err)
		}
		{
			r := New(data)
			got := r.Float64()
			var want float64
			err := json.Unmarshal(data, &want)
			check(t, in, "float64", r.End(), got, want, err)
		}
		{
			r := New(data)
			got := r.Bool()
			var want bool
			err := json.Unmarshal(data, &want)
			check(t, in, "bool", r.End(), got, want, err)
		}
		{
			r := New(data)
			got := r.String()
			var want string
			err := json.Unmarshal(data, &want)
			check(t, in, "string", r.End(), got, want, err)
		}
	}
	// The canonical spellings must take the fast path.
	for in, read := range map[string]func(*Reader) any{
		`18446744073709551615`:  func(r *Reader) any { return r.Uint64() },
		`-9223372036854775808`:  func(r *Reader) any { return r.Int64() },
		`123456789012345678901`: func(r *Reader) any { return r.Float64() },
		`1e-7`:                  func(r *Reader) any { return r.Float64() },
		`"plru"`:                func(r *Reader) any { return r.String() },
		`false`:                 func(r *Reader) any { return r.Bool() },
	} {
		r := New([]byte(in))
		read(r)
		if !r.End() {
			t.Errorf("%s: fast path declined a canonical value", in)
		}
	}
}

// TestFieldsRejectsUnknownAndRepeatedKeys: an object reader fails on a
// key it does not list or has already read, and on a malformed object.
func TestFieldsRejectsUnknownAndRepeatedKeys(t *testing.T) {
	type pair struct{ A, B int }
	fields := Fields[pair]{
		{Name: "a", Read: func(r *Reader, v *pair) { v.A = r.Int() }},
		{Name: "b", Read: func(r *Reader, v *pair) { v.B = r.Int() }},
	}
	for in, want := range map[string]bool{
		`{"a":1,"b":2}`:        true,
		`{"b":2,"a":1}`:        true,
		`{}`:                   true,
		`{"a":1}`:              true,
		`{"a":1,"a":2}`:        false,
		`{"a":1,"c":2}`:        false,
		`{"A":1}`:              false,
		`{"a":1,}`:             false,
		`{"a" :1}`:             false,
		`{"a":1 }`:             false,
		`{"a":1}{}`:            false,
		`{"a":1,"b":2`:         false,
		`["a",1]`:              false,
		`{"a":1,"b":null}`:     false,
		`{"a":1,"b":2}` + "\n": true,
	} {
		var v pair
		r := New([]byte(in))
		fields.Read(r, &v)
		if got := r.End(); got != want {
			t.Errorf("%q: fast path %v, want %v", in, got, want)
		}
	}
}
