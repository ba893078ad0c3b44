package engine

import (
	"testing"

	"github.com/maps-sim/mapsim/internal/memlayout"
)

// TestReadWritebackZeroAllocs pins the secure engine's per-miss
// metadata walk at zero heap allocations in steady state. The warmup
// pass touches the whole address window first so the lazily built
// counter blocks exist before measurement.
func TestReadWritebackZeroAllocs(t *testing.T) {
	e, _ := newEngine(t, 32<<10, false)
	var x uint64 = 7
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return (x >> 33 % (1 << 14)) * 64 // 1 MB window of data blocks
	}
	now := uint64(0)
	for i := 0; i < 50_000; i++ {
		if i%3 == 0 {
			now += e.Writeback(now, next())
		} else {
			now += e.Read(now, next())
		}
	}
	if avg := testing.AllocsPerRun(500, func() {
		now += e.Read(now, next())
	}); avg != 0 {
		t.Errorf("Read allocates %v per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(500, func() {
		now += e.Writeback(now, next())
	}); avg != 0 {
		t.Errorf("Writeback allocates %v per call, want 0", avg)
	}
}

// TestWritebackWrittenPageZeroAllocs pins the split-counter table: a
// new engine holds no table, and once a page's counter block has been
// written, further writebacks to the page allocate nothing — no
// per-page object, no index growth.
func TestWritebackWrittenPageZeroAllocs(t *testing.T) {
	e, _ := newEngine(t, 32<<10, false)
	if e.counters.leaves != nil || e.counters.small.chunks != nil || e.counters.full.chunks != nil {
		t.Fatalf("New allocated a counter table: %d leaves, %d nibble chunks, %d full chunks",
			len(e.counters.leaves), len(e.counters.small.chunks), len(e.counters.full.chunks))
	}
	pages := []uint64{9000, 3, 700, 12000, 41}
	for _, p := range pages {
		e.Writeback(0, p*memlayout.PageSize)
	}
	i := 0
	if avg := testing.AllocsPerRun(500, func() {
		i++
		e.Writeback(0, pages[i%len(pages)]*memlayout.PageSize+uint64(i%64)*memlayout.BlockSize)
	}); avg != 0 {
		t.Errorf("Writeback to a written page allocates %v per call, want 0", avg)
	}
}
