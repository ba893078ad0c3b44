package workload_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/maps-sim/mapsim/internal/trace"
	"github.com/maps-sim/mapsim/internal/workload"
)

// writeReplayFile records n synthetic records into a streaming trace.
func writeReplayFile(t *testing.T, n int, gz bool) (string, []trace.Record) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "w.mtrace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f, trace.StreamHeader{Name: "recorded", Footprint: 1 << 16}, gz)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{
			Addr:  uint64(i%1024) * 64,
			Write: i%4 == 0,
			Gap:   uint32(i%9) + 1,
		}
		if err := w.Write(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, recs
}

// Replay must surface the recorded stream verbatim, wrap around at
// end-of-trace, and replay identically across Resets (the seed is
// irrelevant by design).
func TestTraceReplayRoundTripAndWrap(t *testing.T) {
	for _, gz := range []bool{false, true} {
		path, recs := writeReplayFile(t, 10, gz)
		g, err := workload.NewTraceReplay(path)
		if err != nil {
			t.Fatal(err)
		}
		if g.Name() != "recorded" || g.Footprint() != 1<<16 {
			t.Fatalf("header lost: name=%q footprint=%d", g.Name(), g.Footprint())
		}
		var a workload.Access
		for i := 0; i < 25; i++ { // wraps twice
			g.Next(&a)
			want := recs[i%len(recs)]
			if a.Addr != want.Addr || a.Write != want.Write || a.Gap != want.Gap {
				t.Fatalf("gz=%v access %d = %+v, want %+v", gz, i, a, want)
			}
		}
		g.Reset(99)
		g.Next(&a)
		if a.Addr != recs[0].Addr || a.Write != recs[0].Write || a.Gap != recs[0].Gap {
			t.Fatalf("gz=%v Reset did not rewind to record 0: %+v", gz, a)
		}
	}
}

func TestTraceReplayRejectsBadInputs(t *testing.T) {
	if _, err := workload.NewTraceReplay(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted")
	}

	// A metadata trace (`mapstrace record`) holds engine accesses, not a
	// workload's, and a stream without a name/footprint header cannot
	// size the address space: replay refuses both and names the
	// recorder to use.
	for name, hdr := range map[string]trace.StreamHeader{
		"metadata":   {Name: "canneal", Meta: true},
		"headerless": {},
	} {
		path := filepath.Join(t.TempDir(), name+".trace")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w, err := trace.NewWriter(f, hdr, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(trace.Record{Addr: 64, Class: 1, Cost: 2}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if _, err := workload.NewTraceReplay(path); err == nil || !strings.Contains(err.Error(), "mapstrace record-workload") {
			t.Errorf("%s trace: err = %v, want a refusal naming mapstrace record-workload", name, err)
		}
	}

	// An empty (zero-record) trace has nothing to replay.
	empty, _ := writeReplayFile(t, 0, false)
	if _, err := workload.NewTraceReplay(empty); err == nil {
		t.Error("empty trace accepted for replay")
	}
}
