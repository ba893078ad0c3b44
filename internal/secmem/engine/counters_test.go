package engine

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"github.com/maps-sim/mapsim/internal/dram"
	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/secmem/ctr"
)

// refCounters is the reference the engine's counter table is held to:
// one heap-allocated ctr.PIBlock per written counter block, keyed by
// the block's address, created on the block's first write.
type refCounters map[uint64]*ctr.PIBlock

func (m refCounters) increment(org memlayout.Organization, cAddr uint64, slot int) bool {
	if org == memlayout.SGX {
		return false
	}
	blk := m[cAddr]
	if blk == nil {
		blk = &ctr.PIBlock{}
		m[cAddr] = blk
	}
	return blk.Increment(slot)
}

// counter returns the engine's logical counter block at cAddr, nil if
// it was never written.
func (e *Engine) counter(cAddr uint64) *ctr.PIBlock {
	t := &e.counters
	i := (cAddr - e.layout.CounterAddr(0)) / memlayout.BlockSize
	if i >= uint64(len(t.index)) || t.index[i] == 0 {
		return nil
	}
	r := t.index[i] - 1
	return &t.chunks[r/counterChunk][r%counterChunk]
}

// checkCounterTwin writes back each data address in turn through an
// engine and through the reference, and fails on the first write whose
// overflow (page re-encryption) differs, then on any counter block
// whose state differs at the end — blocks never written included,
// which both must report absent.
func checkCounterTwin(t *testing.T, org memlayout.Organization, dataBytes uint64, writes []uint64) {
	t.Helper()
	layout := memlayout.MustNew(org, dataBytes)
	e := MustNew(Config{Layout: layout, DRAM: dram.MustNew(dram.Default())})
	ref := refCounters{}
	for i, addr := range writes {
		before := e.Stats().PageReencryptions
		e.Writeback(0, addr)
		got := e.Stats().PageReencryptions - before
		want := ref.increment(org, layout.CounterAddr(addr), layout.CounterSlot(addr))
		if (got == 1) != want || got > 1 {
			t.Fatalf("write %d (%#x): %d re-encryptions, reference overflow %v", i, addr, got, want)
		}
	}
	for b := uint64(0); b < layout.CounterBlocks(); b++ {
		cAddr := layout.CounterAddr(b * org.CounterCoverage())
		got, want := e.counter(cAddr), ref[cAddr]
		switch {
		case got == nil && want == nil:
		case got == nil || want == nil:
			t.Fatalf("counter block %#x: table has %v, reference %v", cAddr, got, want)
		case *got != *want:
			t.Fatalf("counter block %#x diverged: table major=%d minors=%v, reference major=%d minors=%v",
				cAddr, got.Major, got.Minor[:8], want.Major, want.Minor[:8])
		}
	}
	if int(e.counters.n) != len(ref) {
		t.Fatalf("table holds %d records, reference %d", e.counters.n, len(ref))
	}
	if len(e.counters.index) > int(layout.CounterBlocks()) {
		t.Fatalf("index grew to %d slots past the layout's %d counter blocks", len(e.counters.index), layout.CounterBlocks())
	}
}

// TestCounterTableMatchesMap holds the engine's flat counter table to
// the per-page map it replaced: minor overflows on a hammered slot,
// pages written out of order and far apart (so the index grows past
// existing records and records cross chunk boundaries), and an SGX
// layout, whose 64-bit counters never touch the table.
func TestCounterTableMatchesMap(t *testing.T) {
	const mb = 1 << 20
	page := func(p uint64) uint64 { return p * memlayout.PageSize }
	t.Run("overflow", func(t *testing.T) {
		var writes []uint64
		for i := 0; i < 3*ctr.MinorLimit+5; i++ {
			writes = append(writes, page(7)+5*memlayout.BlockSize)
			if i%10 == 0 {
				writes = append(writes, page(7)+uint64(i%64)*memlayout.BlockSize)
			}
		}
		checkCounterTwin(t, memlayout.PoisonIvy, mb, writes)
	})
	t.Run("scattered", func(t *testing.T) {
		const pages = 256 * mb / memlayout.PageSize
		writes := []uint64{page(3), page(0), page(40)}
		rng := rand.New(rand.NewSource(20))
		for i := 1; i <= 5000; i++ {
			// Mostly the low pages already written, sometimes anywhere
			// below a ceiling that climbs to the top of the layout: the
			// index keeps growing under existing records.
			p := uint64(rng.Intn(300))
			if i%7 == 0 {
				p = uint64(rng.Intn(pages * i / 5000))
			}
			writes = append(writes, page(p)+uint64(rng.Intn(64))*memlayout.BlockSize)
		}
		writes = append(writes, page(pages-1), page(3), page(pages/2), page(0), page(pages-1))
		checkCounterTwin(t, memlayout.PoisonIvy, 256*mb, writes)
	})
	t.Run("sgx", func(t *testing.T) {
		var writes []uint64
		rng := rand.New(rand.NewSource(21))
		for i := 0; i < 2000; i++ {
			writes = append(writes, uint64(rng.Intn(4*mb/memlayout.BlockSize))*memlayout.BlockSize)
		}
		for i := 0; i < 2*ctr.MinorLimit; i++ {
			writes = append(writes, 0)
		}
		checkCounterTwin(t, memlayout.SGX, 4*mb, writes)
	})
}

// FuzzCounterTableMatchesMap holds the counter table to the map
// reference on fuzzer-chosen organizations, layout sizes and write
// streams. The first byte picks the organization (bit 0) and the data
// size (64 KB × 4^k); every further 3 bytes are one data block
// (uint16, wrapped to the layout) and how many times in a row it is
// written (1–256, so a slot can overflow within a few records).
func FuzzCounterTableMatchesMap(f *testing.F) {
	f.Add([]byte{0, 5, 0, 200, 5, 0, 200})                        // PI: one slot overflows
	f.Add([]byte{6, 3, 0, 0, 0xff, 0xff, 0, 0, 0x80, 0, 3, 0, 0}) // PI 4 MB: far apart, out of order
	f.Add([]byte{3, 1, 0, 255, 9, 2, 4})                          // SGX
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		org := memlayout.PoisonIvy
		if data[0]&1 != 0 {
			org = memlayout.SGX
		}
		dataBytes := uint64(64<<10) << (2 * (data[0] >> 1 % 4))
		blocks := dataBytes / memlayout.BlockSize
		var writes []uint64
		for p := data[1:]; len(p) >= 3 && len(writes) < 1<<14; p = p[3:] {
			addr := uint64(binary.LittleEndian.Uint16(p)) % blocks * memlayout.BlockSize
			for n := int(p[2]) + 1; n > 0; n-- {
				writes = append(writes, addr)
			}
		}
		checkCounterTwin(t, org, dataBytes, writes)
	})
}
