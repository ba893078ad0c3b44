package engine

import (
	"math/rand"
	"testing"

	"github.com/maps-sim/mapsim/internal/dram"
	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/secmem/ctr"
)

// The timing engine and the functional controller maintain counter
// state independently (one for overflow timing, one for real
// encryption). Driving both with the same write sequence must leave
// them with identical counter values — any divergence means one of
// the two models increments differently than the hardware would.
func TestTimingMatchesFunctionalCounters(t *testing.T) {
	layout := memlayout.MustNew(memlayout.PoisonIvy, 1<<20)
	timing := MustNew(Config{Layout: layout, DRAM: dram.MustNew(dram.Default())})
	functional, err := NewFunctional(layout, make([]byte, 16), []byte("k"))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(31))
	var blk Block
	touched := map[uint64]bool{}
	for i := 0; i < 4000; i++ {
		addr := uint64(rng.Intn(int(layout.DataBytes()/64))) * 64
		timing.Writeback(0, addr)
		if err := functional.Store(addr, &blk); err != nil {
			t.Fatalf("functional store %#x: %v", addr, err)
		}
		touched[layout.CounterAddr(addr)] = true
	}

	var raw [memlayout.BlockSize]byte
	for cAddr := range touched {
		var want ctr.PIBlock
		functional.Memory().Read(cAddr, &raw)
		want.Decode(&raw)

		got := timing.counter(cAddr)
		if got == nil {
			t.Fatalf("timing engine never materialized counter %#x", cAddr)
		}
		if *got != want {
			t.Fatalf("counter %#x diverged:\n timing:     major=%d minors=%v\n functional: major=%d minors=%v",
				cAddr, got.Major, got.Minor[:8], want.Major, want.Minor[:8])
		}
	}
}

// Overflow events must also agree: hammering one block past the minor
// limit re-encrypts the page in both models, leaving the same major
// counter.
func TestTimingMatchesFunctionalOverflow(t *testing.T) {
	layout := memlayout.MustNew(memlayout.PoisonIvy, 1<<20)
	timing := MustNew(Config{Layout: layout, DRAM: dram.MustNew(dram.Default())})
	functional, err := NewFunctional(layout, make([]byte, 16), []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	var blk Block
	const writes = 300 // > 2 overflows of the 7-bit minor
	for i := 0; i < writes; i++ {
		timing.Writeback(0, 0)
		if err := functional.Store(0, &blk); err != nil {
			t.Fatal(err)
		}
	}
	cAddr := layout.CounterAddr(0)
	var raw [memlayout.BlockSize]byte
	var want ctr.PIBlock
	functional.Memory().Read(cAddr, &raw)
	want.Decode(&raw)
	got := timing.counter(cAddr)
	if got.Major != want.Major || got.Minor != want.Minor {
		t.Fatalf("after %d writes: timing major=%d minor0=%d, functional major=%d minor0=%d",
			writes, got.Major, got.Minor[0], want.Major, want.Minor[0])
	}
	if timing.Stats().PageReencryptions != uint64(got.Major) {
		t.Errorf("re-encryptions %d != major counter %d", timing.Stats().PageReencryptions, got.Major)
	}
	// And the functional data is still loadable after re-encryptions.
	var out Block
	if err := functional.Load(0, &out); err != nil {
		t.Fatalf("load after overflows: %v", err)
	}
}
