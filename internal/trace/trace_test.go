package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func randomTrace(n int, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	t := &Trace{}
	for i := 0; i < n; i++ {
		t.Append(Access{
			Addr:  uint64(rng.Intn(256)) * 64,
			Write: rng.Intn(3) == 0,
			Class: uint8(rng.Intn(6)),
			Cost:  uint8(1 + rng.Intn(5)),
		})
	}
	return t
}

func TestAppendAndLen(t *testing.T) {
	tr := &Trace{}
	if tr.Len() != 0 {
		t.Error("empty trace has nonzero length")
	}
	tr.Append(Access{Addr: 64})
	tr.Append(Access{Addr: 128, Write: true})
	if tr.Len() != 2 {
		t.Errorf("len = %d", tr.Len())
	}
}

func TestFutureQueues(t *testing.T) {
	tr := &Trace{}
	for _, a := range []uint64{0, 64, 0, 128, 0, 64} {
		tr.Append(Access{Addr: a})
	}
	q := tr.FutureQueues()
	want := map[uint64][]int64{0: {0, 2, 4}, 64: {1, 5}, 128: {3}}
	for addr, positions := range want {
		got := q[addr]
		if len(got) != len(positions) {
			t.Fatalf("addr %d: %v, want %v", addr, got, positions)
		}
		for i := range positions {
			if got[i] != positions[i] {
				t.Fatalf("addr %d: %v, want %v", addr, got, positions)
			}
		}
	}
}

func TestEqual(t *testing.T) {
	a := randomTrace(100, 1)
	b := randomTrace(100, 1)
	if !a.Equal(b) {
		t.Error("identical traces not equal")
	}
	b.Accesses[50].Addr ^= 64
	if a.Equal(b) {
		t.Error("differing traces equal")
	}
	c := randomTrace(99, 1)
	if a.Equal(c) {
		t.Error("different lengths equal")
	}
}

// The reader knows one format: anything that does not open with the
// MTS1 magic is refused, including the fixed-count codec earlier
// builds wrote for metadata traces (magic "CRTM" on disk).
func TestReadRejectsBadMagic(t *testing.T) {
	for _, data := range [][]byte{
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		{0x43, 0x52, 0x54, 0x4D, 1, 0, 0, 0, 0, 0, 0, 0, 64, 0, 0, 0, 0, 0, 0, 0, 0, 1},
	} {
		if _, err := NewReader(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "bad magic") {
			t.Errorf("NewReader(%x) err = %v, want bad magic", data[:4], err)
		}
	}
}
