package engine

import (
	"encoding/binary"
	"math/rand"
	"slices"
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

// counter returns the engine's logical counter block at cAddr, built
// from whichever tier holds it, nil if it was never written.
func (e *Engine) counter(cAddr uint64) *ctr.PIBlock {
	t := &e.counters
	i := (cAddr - e.layout.CounterAddr(0)) / memlayout.BlockSize
	if i/counterLeaf >= uint64(len(t.leaves)) || t.leaves[i/counterLeaf] == nil {
		return nil
	}
	b := &ctr.PIBlock{}
	switch r := t.leaves[i/counterLeaf][i%counterLeaf]; {
	case r == 0:
		return nil
	case r&promoted != 0:
		*b = *t.full.at(r &^ promoted)
	default:
		t.small.at(r - 1).unpack(&b.Minor)
	}
	return b
}

// promotedRef reports whether a reference block must be in the table's
// full tier: some minor reached 16. Minors only reset on an overflow,
// which bumps the major, so that is a major above 0 or a minor of 16
// or more now.
func promotedRef(b *ctr.PIBlock) bool {
	return b.Major > 0 || slices.Max(b.Minor[:]) >= 16
}

// checkCounterTwin writes back each data address in turn through an
// engine and through the reference, and fails on the first write whose
// overflow (page re-encryption) differs, then on any counter block
// whose state or tier differs at the end — blocks never written
// included, which both must report absent — and on a table that does
// not hold one nibble record per written page, one full record per
// promoted page and one index leaf per leaf of written pages.
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
	promotions, spanned := 0, map[uint64]bool{}
	for b := uint64(0); b < layout.CounterBlocks(); b++ {
		cAddr := layout.CounterAddr(b * org.CounterCoverage())
		got, want := e.counter(cAddr), ref[cAddr]
		switch {
		case got == nil && want == nil:
			continue
		case got == nil || want == nil:
			t.Fatalf("counter block %#x: table has %v, reference %v", cAddr, got, want)
		case *got != *want:
			t.Fatalf("counter block %#x diverged: table major=%d minors=%v, reference major=%d minors=%v",
				cAddr, got.Major, got.Minor[:8], want.Major, want.Minor[:8])
		}
		full := e.counters.leaves[b/counterLeaf][b%counterLeaf]&promoted != 0
		if full != promotedRef(want) {
			t.Fatalf("counter block %#x: in the full tier %v, reference reached a minor of 16 %v", cAddr, full, !full)
		}
		if full {
			promotions++
		}
		spanned[b/counterLeaf] = true
	}
	if small, full := int(e.counters.small.n), int(e.counters.full.n); small != len(ref) || full != promotions {
		t.Fatalf("table holds %d nibble and %d full records, reference %d pages of which %d promoted",
			small, full, len(ref), promotions)
	}
	allocated := 0
	for _, l := range e.counters.leaves {
		if l != nil {
			allocated++
		}
	}
	if allocated != len(spanned) {
		t.Fatalf("index allocated %d leaves, written pages span %d", allocated, len(spanned))
	}
	if capLeaves := (int(layout.CounterBlocks()) + counterLeaf - 1) / counterLeaf; len(e.counters.leaves) > capLeaves {
		t.Fatalf("leaf table grew to %d past the %d leaves covering the layout", len(e.counters.leaves), capLeaves)
	}
}

// TestCounterTableMatchesMap holds the engine's two-tier counter table
// to a per-page map of ctr.PIBlock: minor overflows on a hammered slot,
// promotions from nibbles to full records with every other slot
// counting, from each end of each nibble word, some followed by
// overflows, and new pages written after them, pages written out of
// order and far apart (so the index grows past existing records and
// records cross chunk boundaries), and an SGX layout, whose 64-bit
// counters never touch the table.
func TestCounterTableMatchesMap(t *testing.T) {
	const mb = 1 << 20
	page := func(p uint64) uint64 { return p * memlayout.PageSize }
	block := func(p uint64, slot int) uint64 { return page(p) + uint64(slot)*memlayout.BlockSize }
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
	t.Run("promotion", func(t *testing.T) {
		var writes []uint64
		write := func(addr uint64, n int) {
			for ; n > 0; n-- {
				writes = append(writes, addr)
			}
		}
		// promote writes every slot of page p 1–15 times, the hot one
		// 15, then the hot one once more: the write that promotes.
		promote := func(p uint64, hot int) {
			for s := 0; s < ctr.PIMinors; s++ {
				n := (s*7+hot)%15 + 1
				if s == hot {
					n = 15
				}
				write(block(p, s), n)
			}
			write(block(p, hot), 1)
			write(block(p, (hot+1)%ctr.PIMinors), 2)
		}
		for k, hot := range []int{0, 15, 16, 63, 40} {
			// Page 10+3k keeps its promoted minors; page 11+3k goes on
			// to overflow on its hot slot's 128th write.
			promote(uint64(10+3*k), hot)
			promote(uint64(11+3*k), hot)
			write(block(uint64(11+3*k), hot), ctr.MinorLimit-16)
			write(block(uint64(11+3*k), hot), 3)
			write(block(uint64(11+3*k), (hot+5)%ctr.PIMinors), 1)
			write(block(200+uint64(k), hot), 3)
			write(block(200+uint64(k), 63-hot), 15) // the most a nibble counts
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
// streams; the seeds cross a slot's 16th write (promotion) and its
// 128th (overflow). The first byte picks the organization (bit 0) and the data
// size (64 KB × 4^k); every further 3 bytes are one data block
// (uint16, wrapped to the layout) and how many times in a row it is
// written (1–256, so a slot can overflow within a few records).
func FuzzCounterTableMatchesMap(f *testing.F) {
	f.Add([]byte{0, 5, 0, 200, 5, 0, 200})                        // PI: one slot overflows
	f.Add([]byte{0, 5, 0, 14, 6, 0, 9, 5, 0, 0, 9, 0, 3})         // PI: one slot promotes the page at 16
	f.Add([]byte{0, 5, 0, 14, 6, 0, 3, 5, 0, 112, 7, 0, 0})       // PI: promotes, then overflows at 128
	f.Add([]byte{2, 0, 0, 15, 0, 1, 40, 0, 2, 127, 0, 3, 1})      // PI 256 KB: promotions among new pages
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
