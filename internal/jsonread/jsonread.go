// Package jsonread reads the canonical JSON that encoding/json's own
// encoder writes, without reflection: compact objects and arrays,
// strings of printable ASCII with no escapes, and numbers, booleans
// and nothing else. It is the fast path of the wire types that carry
// simulation results in bulk (sim.Result, sweep.Result).
//
// A Reader never reports an error. Anything outside that shape — a
// null, whitespace inside the value, an escape or a non-ASCII byte in
// a string, a number outside JSON's grammar or its target's range, an
// unknown or repeated key — fails it, after which every read returns
// a zero value and End reports false. The caller then decodes the same
// bytes with encoding/json, so values and errors on every input that
// is not canonical are encoding/json's by construction.
package jsonread

import (
	"bytes"
	"strconv"
	"strings"
)

// Reader reads one JSON value from a byte slice.
type Reader struct {
	data   []byte
	off    int
	failed bool
}

// New returns a Reader positioned at the start of data.
func New(data []byte) *Reader { return &Reader{data: data} }

// Fail marks the input as not canonical.
func (r *Reader) Fail() { r.failed = true }

// End reports whether the whole input was read canonically: nothing
// failed and only whitespace follows the value.
func (r *Reader) End() bool {
	for ; r.off < len(r.data); r.off++ {
		switch r.data[r.off] {
		case ' ', '\t', '\n', '\r':
		default:
			return false
		}
	}
	return !r.failed
}

// consume reads the byte c, failing the reader unless it is next.
func (r *Reader) consume(c byte) bool {
	if r.failed || r.off >= len(r.data) || r.data[r.off] != c {
		r.failed = true
		return false
	}
	r.off++
	return true
}

// more reads the separator after an element: a comma (true) or the
// closing byte (false). Anything else fails the reader.
func (r *Reader) more(close byte) bool {
	if r.failed || r.off >= len(r.data) {
		r.failed = true
		return false
	}
	switch r.data[r.off] {
	case ',':
		r.off++
		return true
	case close:
		r.off++
		return false
	}
	r.failed = true
	return false
}

// open reads an opening byte and reports whether an element follows
// rather than the closing byte.
func (r *Reader) open(open, close byte) bool {
	if !r.consume(open) {
		return false
	}
	if r.off < len(r.data) && r.data[r.off] == close {
		r.off++
		return false
	}
	return true
}

// ObjectStart reads '{' and reports whether a member follows. Loop
// over the members with
//
//	for more := r.ObjectStart(); more; more = r.ObjectNext() {
//		key := r.Key()
//		...read the value...
//	}
func (r *Reader) ObjectStart() bool { return r.open('{', '}') }

// ObjectNext reads the separator after a member and reports whether
// another follows.
func (r *Reader) ObjectNext() bool { return r.more('}') }

// ArrayStart reads '[' and reports whether an element follows; loop
// with ArrayNext as with ObjectStart.
func (r *Reader) ArrayStart() bool { return r.open('[', ']') }

// ArrayNext reads the separator after an element and reports whether
// another follows.
func (r *Reader) ArrayNext() bool { return r.more(']') }

// Key reads a member's key and the colon after it. The result aliases
// the input; compare it, or convert it, before the input changes.
func (r *Reader) Key() []byte {
	k := r.stringBytes()
	if !r.consume(':') {
		return nil
	}
	return k
}

// stringBytes reads a string of printable ASCII without escapes and
// returns its contents, aliasing the input.
func (r *Reader) stringBytes() []byte {
	if !r.consume('"') {
		return nil
	}
	start := r.off
	for ; r.off < len(r.data); r.off++ {
		switch c := r.data[r.off]; {
		case c == '"':
			r.off++
			return r.data[start : r.off-1]
		case c < 0x20 || c >= 0x80 || c == '\\':
			r.failed = true
			return nil
		}
	}
	r.failed = true
	return nil
}

// String reads a string of printable ASCII without escapes.
func (r *Reader) String() string { return string(r.stringBytes()) }

// Bool reads true or false.
func (r *Reader) Bool() bool {
	switch rest := r.data[r.off:]; {
	case !r.failed && bytes.HasPrefix(rest, []byte("true")):
		r.off += 4
		return true
	case !r.failed && bytes.HasPrefix(rest, []byte("false")):
		r.off += 5
		return false
	}
	r.failed = true
	return false
}

// skip consumes the next byte if it is one of set, and reports
// whether it did.
func (r *Reader) skip(set string) bool {
	if r.off < len(r.data) && strings.IndexByte(set, r.data[r.off]) >= 0 {
		r.off++
		return true
	}
	return false
}

// digits reads one or more decimal digits and returns them. A
// number's integer part (intPart) has no leading zero unless it is a
// lone "0"; the digits of a fraction or an exponent may.
func (r *Reader) digits(intPart bool) []byte {
	start := r.off
	for r.off < len(r.data) && r.data[r.off] >= '0' && r.data[r.off] <= '9' {
		r.off++
	}
	if n := r.off - start; n == 0 || intPart && n > 1 && r.data[start] == '0' {
		r.failed = true
		return nil
	}
	return r.data[start:r.off]
}

// Uint64 reads a non-negative integer that fits in a uint64.
func (r *Reader) Uint64() uint64 {
	if r.failed {
		return 0
	}
	var v uint64
	for _, c := range r.digits(true) {
		d := uint64(c - '0')
		if v > (1<<64-1-d)/10 {
			r.failed = true
			return 0
		}
		v = v*10 + d
	}
	return v
}

// Int64 reads an integer that fits in an int64.
func (r *Reader) Int64() int64 {
	if r.failed {
		return 0
	}
	neg := r.skip("-")
	switch v := r.Uint64(); {
	case neg && v <= 1<<63:
		return -int64(v)
	case !neg && v < 1<<63:
		return int64(v)
	}
	r.failed = true
	return 0
}

// Int reads an integer that fits in an int.
func (r *Reader) Int() int {
	v := r.Int64()
	if int64(int(v)) != v {
		r.failed = true
		return 0
	}
	return int(v)
}

// Float64 reads a number in JSON's grammar that parses to a finite
// float64.
func (r *Reader) Float64() float64 {
	if r.failed {
		return 0
	}
	start := r.off
	r.skip("-")
	r.digits(true)
	if r.skip(".") {
		r.digits(false)
	}
	if r.skip("eE") {
		r.skip("+-")
		r.digits(false)
	}
	if r.failed {
		return 0
	}
	v, err := strconv.ParseFloat(string(r.data[start:r.off]), 64)
	if err != nil {
		r.failed = true
		return 0
	}
	return v
}

// Field is one member of a struct's JSON object: its key and the
// function that reads its value into the struct.
type Field[T any] struct {
	Name string
	Read func(r *Reader, v *T)
}

// Fields describes a struct's JSON object, at most 64 members. List
// them in the struct's order, the order encoding/json writes them.
type Fields[T any] []Field[T]

// Read reads an object into v. Members may come in any order; an
// unknown key, or one seen before, fails the reader. Members absent
// from the input leave their fields as they are.
func (fs Fields[T]) Read(r *Reader, v *T) {
	var seen uint64
	next := 0 // where the canonical order puts the next key
	for more := r.ObjectStart(); more; more = r.ObjectNext() {
		key := r.Key()
		i := fs.index(key, next)
		if i < 0 || seen&(1<<i) != 0 {
			r.failed = true
			return
		}
		seen |= 1 << i
		fs[i].Read(r, v)
		next = i + 1
	}
}

// index returns the position of key in fs, trying hint first, or -1.
func (fs Fields[T]) index(key []byte, hint int) int {
	if hint < len(fs) && fs[hint].Name == string(key) {
		return hint
	}
	for i := range fs {
		if fs[i].Name == string(key) {
			return i
		}
	}
	return -1
}
