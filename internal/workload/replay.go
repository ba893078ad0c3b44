package workload

import (
	"fmt"
	"io"
	"os"

	"github.com/maps-sim/mapsim/internal/trace"
)

// traceReplay streams a recorded trace file back through the
// Generator interface, reopening the file on Reset and wrapping
// around at end-of-stream so the simulator can draw more accesses
// than the trace holds. It reads through the chunked trace.Reader,
// so replay memory stays O(chunk) however large the file is.
type traceReplay struct {
	path      string
	name      string
	footprint uint64
	f         *os.File
	r         *trace.Reader
	emitted   uint64 // records emitted since the last (re)open
}

// NewTraceReplay opens a streaming trace (recorded with `mapstrace
// record-workload`) for replay as a workload generator. The file must
// carry a workload header — name, footprint, no Meta bit — and at
// least one record. The generator ignores the Reset seed (a trace is
// already a fixed sequence) and wraps around at end-of-trace. I/O
// failure after open (a truncated or vanished file mid-run) panics
// with the file position, since Generator.Next has no error path; the
// daemon's job pool isolates such panics to the submitting job.
func NewTraceReplay(path string) (Generator, error) {
	g := &traceReplay{path: path}
	if err := g.open(); err != nil {
		return nil, err
	}
	hdr := g.r.Header()
	if hdr.Meta || hdr.Name == "" || hdr.Footprint == 0 {
		g.f.Close()
		return nil, fmt.Errorf("workload: %s is not a workload trace (a metadata trace, or no name/footprint header); record one with `mapstrace record-workload`", path)
	}
	var rec trace.Record
	if err := g.r.Next(&rec); err != nil {
		g.f.Close()
		if err == io.EOF {
			return nil, fmt.Errorf("workload: trace %s holds no records", path)
		}
		return nil, fmt.Errorf("workload: reading %s: %w", path, err)
	}
	g.name = hdr.Name
	g.footprint = hdr.Footprint
	// Rewind so the first Next sees the first record.
	if err := g.open(); err != nil {
		return nil, err
	}
	return g, nil
}

// open (re)opens the file and positions a fresh reader at record 0.
func (g *traceReplay) open() error {
	if g.f != nil {
		g.f.Close()
		g.f, g.r = nil, nil
	}
	f, err := os.Open(g.path)
	if err != nil {
		return fmt.Errorf("workload: opening trace: %w", err)
	}
	r, err := trace.NewReader(f)
	if err != nil {
		f.Close()
		return fmt.Errorf("workload: reading trace %s: %w", g.path, err)
	}
	g.f, g.r, g.emitted = f, r, 0
	return nil
}

// Name implements Generator.
func (g *traceReplay) Name() string { return g.name }

// Footprint implements Generator.
func (g *traceReplay) Footprint() uint64 { return g.footprint }

// Reset implements Generator. The seed is ignored: the trace is the
// stream.
func (g *traceReplay) Reset(int64) {
	if err := g.open(); err != nil {
		panic(fmt.Sprintf("workload: trace replay reset: %v", err))
	}
}

// Next implements Generator, wrapping to record 0 at end-of-trace.
func (g *traceReplay) Next(a *Access) {
	var rec trace.Record
	err := g.r.Next(&rec)
	if err == io.EOF {
		if err := g.open(); err != nil {
			panic(fmt.Sprintf("workload: trace replay rewind: %v", err))
		}
		err = g.r.Next(&rec)
	}
	if err != nil {
		panic(fmt.Sprintf("workload: trace replay %s after %d records: %v", g.path, g.emitted, err))
	}
	g.emitted++
	a.Addr = rec.Addr
	a.Write = rec.Write
	a.Gap = rec.Gap
	if a.Gap < 1 {
		a.Gap = 1
	}
}
