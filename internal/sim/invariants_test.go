package sim

import (
	"testing"

	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/secmem/ctr"
	"github.com/maps-sim/mapsim/internal/trace"
	"github.com/maps-sim/mapsim/internal/workload"
)

// checkIdentities fails the test unless r keeps the accounting
// identities every secure Result must: the DRAM model's reads and
// writes are exactly the engine's traffic by purpose, and every data
// write is an LLC dirty eviction or one of the 64 blocks a page
// re-encryption rewrites. The two sides are counted independently
// (engine purpose counters, DRAM model, hierarchy), so a path that
// touches one book and not the other breaks an identity. Insecure
// Results have no engine traffic to balance.
func checkIdentities(t *testing.T, cfg Config, r *Result) {
	t.Helper()
	if !cfg.Secure {
		return
	}
	m := r.Mem
	reads := m.DataReads + m.CounterReads + m.HashReads + m.TreeReads
	writes := m.DataWrites + m.CounterWrites + m.HashWrites + m.TreeWrites
	if r.DRAM.Reads != reads {
		t.Errorf("%s: DRAM reads %d != engine reads %d (%+v)", r.Benchmark, r.DRAM.Reads, reads, m)
	}
	if r.DRAM.Writes != writes {
		t.Errorf("%s: DRAM writes %d != engine writes %d (%+v)", r.Benchmark, r.DRAM.Writes, writes, m)
	}
	if want := r.LLC.DirtyEvicts + memlayout.BlocksPerPage*r.PageReencryptions; m.DataWrites != want {
		t.Errorf("%s: data writes %d != LLC dirty evictions %d + %d per re-encryption × %d",
			r.Benchmark, m.DataWrites, r.LLC.DirtyEvicts, memlayout.BlocksPerPage, r.PageReencryptions)
	}
}

// Every memory access the engine claims must correspond to a DRAM
// transaction, and vice versa (checkIdentities).
func TestTrafficConservation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"no-metacache", Config{Benchmark: "fft", Instructions: 200_000, Secure: true}},
		{"with-metacache", Config{Benchmark: "fft", Instructions: 200_000, Secure: true,
			Meta: &metacache.Config{Size: 64 << 10, Ways: 8}}},
		{"partial-writes", Config{Benchmark: "lbm", Instructions: 200_000, Secure: true,
			Meta: &metacache.Config{Size: 16 << 10, Ways: 8, PartialWrites: true}}},
		{"counters-only", Config{Benchmark: "canneal", Instructions: 200_000, Secure: true,
			Meta: &metacache.Config{Size: 64 << 10, Ways: 8, Content: metacache.CountersOnly}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkIdentities(t, tc.cfg, r)
		})
	}
}

// The insecure baseline's DRAM traffic is exactly LLC misses plus
// surfaced writebacks.
func TestInsecureTrafficMatchesLLC(t *testing.T) {
	r, err := Run(Config{Benchmark: "libquantum", Instructions: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	if r.DRAM.Reads != r.LLC.Misses {
		t.Errorf("DRAM reads %d != LLC misses %d", r.DRAM.Reads, r.LLC.Misses)
	}
	// Writebacks surface only from LLC dirty evictions.
	if r.DRAM.Writes > r.LLC.DirtyEvicts {
		t.Errorf("DRAM writes %d exceed LLC dirty evictions %d", r.DRAM.Writes, r.LLC.DirtyEvicts)
	}
}

// Secure-memory traffic decomposes: data reads equal LLC misses
// (every miss fetches exactly one data block, plus page
// re-encryptions).
func TestSecureDataReadsMatchLLCMisses(t *testing.T) {
	r, err := Run(Config{Benchmark: "libquantum", Instructions: 200_000, Secure: true,
		Meta: &metacache.Config{Size: 64 << 10, Ways: 8}})
	if err != nil {
		t.Fatal(err)
	}
	reencReads := r.PageReencryptions * 64
	if r.Mem.DataReads != r.LLC.Misses+reencReads {
		t.Errorf("data reads %d != LLC misses %d + re-encryption reads %d",
			r.Mem.DataReads, r.LLC.Misses, reencReads)
	}
}

const conflictStride = 256 << 10

// conflictWriter stores to blocks blocks, each the first of its page
// and 256 KB from the next, in turn. 256 KB is a multiple of every
// default level's set span (4 KB, 32 KB, 256 KB), so all of them fall
// in one set of each 8-way level: with more than 8 blocks the levels
// keep evicting them, and nearly every access pushes a dirty block out
// of the LLC.
type conflictWriter struct {
	blocks, next uint64
}

func (g *conflictWriter) Name() string      { return "conflict" }
func (g *conflictWriter) Footprint() uint64 { return g.blocks * conflictStride }
func (g *conflictWriter) Reset(int64)       { g.next = 0 }
func (g *conflictWriter) Next(a *workload.Access) {
	*a = workload.Access{Addr: g.next % g.blocks * conflictStride, Write: true, Gap: 1}
	g.next++
}

// TestPageReencryptionEndToEnd drives whole runs whose writebacks land
// on a few blocks hundreds of times each, so minor counters overflow
// again and again, and holds the Result to a ctr.PIBlock per page fed
// the same writebacks (taken from the engine's tap: a counter read is
// one read miss, a counter write one writeback, and each block is slot
// 0 of its own page). Warmup is one instruction, before any eviction,
// so every writeback is in the measured window.
func TestPageReencryptionEndToEnd(t *testing.T) {
	const blocks = 9
	for _, tc := range []struct {
		name string
		meta *metacache.Config
	}{
		{"metacache", &metacache.Config{Size: 64 << 10, Ways: 8}},
		{"no-metacache", nil},
		{"counters-bypass", &metacache.Config{Size: 16 << 10, Ways: 8, Content: metacache.HashesTree}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pages := map[uint64]*ctr.PIBlock{}
			var reads, writebacks, overflows uint64
			cfg := Config{
				Workload: &conflictWriter{blocks: blocks}, Instructions: 40_000, Warmup: 1,
				Secure: true, Meta: tc.meta,
				Tap: func(a trace.Access) {
					if a.Class != uint8(memlayout.KindCounter) {
						return
					}
					if !a.Write {
						reads++
						return
					}
					b := pages[a.Addr]
					if b == nil {
						b = &ctr.PIBlock{}
						pages[a.Addr] = b
					}
					writebacks++
					if b.Increment(0) {
						overflows++
					}
				},
			}
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkIdentities(t, cfg, r)
			if len(pages) != blocks || writebacks != r.LLC.DirtyEvicts {
				t.Fatalf("tap saw %d writebacks to %d pages, want the LLC's %d dirty evictions to %d",
					writebacks, len(pages), r.LLC.DirtyEvicts, blocks)
			}
			if writebacks < blocks*2*ctr.MinorLimit {
				t.Fatalf("only %d writebacks: each block must overflow at least twice", writebacks)
			}
			if r.PageReencryptions != overflows {
				t.Errorf("%d page re-encryptions, reference counters overflow %d times", r.PageReencryptions, overflows)
			}
			// checkIdentities holds the data writes to 64 per
			// re-encryption. The tap also counts the warmup's read
			// miss, so the data reads beyond re-encryptions may fall
			// short of the tapped ones.
			if reenc := memlayout.BlocksPerPage * overflows; r.Mem.DataReads < reenc || r.Mem.DataReads-reenc > reads {
				t.Errorf("data reads %d, want %d per overflow plus at most the %d read misses tapped",
					r.Mem.DataReads, memlayout.BlocksPerPage, reads)
			}
		})
	}
}
