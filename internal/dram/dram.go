// Package dram models main-memory timing in the style of DRAMSim2,
// reduced to what the MAPS experiments consume: per-access latency
// with bank-level parallelism and row-buffer locality, plus transfer
// energy at the paper's 150 pJ/bit.
package dram

import (
	"fmt"
	"math/bits"
)

// Config sets the memory geometry and timing, in CPU cycles at the
// simulated core clock (3 GHz in Table I, so 1 cycle = 1/3 ns).
type Config struct {
	// Banks is the number of independent banks.
	Banks int
	// RowBytes is the row-buffer size per bank.
	RowBytes uint64
	// TRCD is the activate-to-read delay in cycles.
	TRCD uint64
	// TCAS is the column access latency in cycles.
	TCAS uint64
	// TRP is the precharge latency in cycles.
	TRP uint64
	// TBurst is the data-transfer time of one 64 B block in cycles.
	TBurst uint64
	// EnergyPJPerBit is the transfer energy; the paper uses 150 pJ/b.
	EnergyPJPerBit float64
	// RowActivatePJ is the fixed energy per row activation.
	RowActivatePJ float64
}

// Default returns timing typical of DDR3-1600 expressed in 3 GHz CPU
// cycles (≈13.75 ns tRCD/tCAS/tRP → ≈41 cycles).
func Default() Config {
	return Config{
		Banks:          8,
		RowBytes:       8 << 10,
		TRCD:           41,
		TCAS:           41,
		TRP:            41,
		TBurst:         12,
		EnergyPJPerBit: 150,
		RowActivatePJ:  5000,
	}
}

// Stats aggregates memory activity.
type Stats struct {
	Reads     uint64
	Writes    uint64
	RowHits   uint64
	RowMisses uint64
	// EnergyPJ is the total transfer + activation energy. It is
	// derived from the integer counters on read (see Config.EnergyOf)
	// rather than accumulated per access, so the hot path stays pure
	// integer.
	EnergyPJ float64
	// BusyCycles approximates total bank occupancy.
	BusyCycles uint64
}

// EnergyOf computes the transfer + activation energy for the given
// counters under this configuration's energy parameters.
func (c Config) EnergyOf(s Stats) float64 {
	return float64(s.RowMisses)*c.RowActivatePJ + float64(s.Reads+s.Writes)*(c.EnergyPJPerBit*64*8)
}

// Accesses returns reads + writes.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// RowHitRate returns the fraction of accesses hitting an open row.
func (s Stats) RowHitRate() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(s.Accesses())
}

type bank struct {
	openRow int64
	readyAt uint64
}

// Memory is an open-page banked DRAM timing model. Not safe for
// concurrent use; parallel experiment sweeps own private Memories.
type Memory struct {
	cfg      Config
	rowShift uint
	banks    []bank
	stats    Stats

	// Hot-path constants folded at New: bank count is a power of two,
	// so bank/row selection is a mask and a shift (the generic modulo
	// compiled to a hardware divide), and the fixed latency sums don't
	// change per access.
	bankMask    uint64
	bankShift   uint
	serviceHit  uint64
	serviceMiss uint64
}

// New creates a memory. Banks must be a power of two and RowBytes a
// power-of-two multiple of 64.
func New(cfg Config) (*Memory, error) {
	if cfg.Banks <= 0 || cfg.Banks&(cfg.Banks-1) != 0 {
		return nil, fmt.Errorf("dram: banks %d must be a positive power of two", cfg.Banks)
	}
	if cfg.RowBytes < 64 || cfg.RowBytes&(cfg.RowBytes-1) != 0 {
		return nil, fmt.Errorf("dram: row size %d must be a power of two >= 64", cfg.RowBytes)
	}
	m := &Memory{
		cfg:         cfg,
		rowShift:    uint(bits.TrailingZeros64(cfg.RowBytes)),
		banks:       make([]bank, cfg.Banks),
		bankMask:    uint64(cfg.Banks - 1),
		bankShift:   uint(bits.TrailingZeros64(uint64(cfg.Banks))),
		serviceHit:  cfg.TCAS + cfg.TBurst,
		serviceMiss: cfg.TRP + cfg.TRCD + cfg.TCAS + cfg.TBurst,
	}
	for i := range m.banks {
		m.banks[i].openRow = -1
	}
	return m, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Memory {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Stats returns a copy of the counters, with the derived energy
// filled in.
func (m *Memory) Stats() Stats {
	s := m.stats
	s.EnergyPJ = m.cfg.EnergyOf(s)
	return s
}

// ResetStats zeroes the counters (bank state persists).
func (m *Memory) ResetStats() { m.stats = Stats{} }

// Access issues one 64 B block transfer at CPU cycle `now` and
// returns its completion latency in cycles, including any wait for
// the target bank.
func (m *Memory) Access(now uint64, addr uint64, write bool) (latency uint64) {
	rowGlobal := addr >> m.rowShift
	b := &m.banks[rowGlobal&m.bankMask]
	row := int64(rowGlobal >> m.bankShift)

	start := now
	if b.readyAt > start {
		start = b.readyAt
	}
	var service uint64
	if b.openRow == row {
		m.stats.RowHits++
		service = m.serviceHit
	} else {
		m.stats.RowMisses++
		service = m.serviceMiss
		b.openRow = row
	}
	b.readyAt = start + service
	m.stats.BusyCycles += service

	if write {
		m.stats.Writes++
	} else {
		m.stats.Reads++
	}
	return (start - now) + service
}
