package main

import (
	"bytes"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/trace"
	"github.com/maps-sim/mapsim/internal/workload"
)

// recordCanneal runs `mapstrace record` in-process on a short secure
// canneal run with a 64KB metadata cache and returns the trace path.
func recordCanneal(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "canneal.trace")
	captureStdout(t, func() error {
		return record([]string{"-bench", "canneal", "-instructions", "100000", "-meta", "64KB", "-out", path})
	})
	return path
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed, failing the test if fn fails.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = pw
	out := make(chan string)
	go func() {
		var b bytes.Buffer
		io.Copy(&b, pr)
		out <- b.String()
	}()
	err = fn()
	os.Stdout = stdout
	pw.Close()
	s := <-out
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// record writes a metadata stream whose records are, in order, the
// Tap stream of the same configuration.
func TestRecordStreamsTheTap(t *testing.T) {
	path := recordCanneal(t)

	var want trace.Trace
	if _, err := sim.Run(sim.Config{
		Benchmark:    "canneal",
		Instructions: 100_000,
		Secure:       true,
		Speculation:  true,
		Meta:         &metacache.Config{Size: 64 << 10},
		Tap:          want.Append,
	}); err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("the Tap saw no metadata accesses")
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	if h := r.Header(); h != (trace.StreamHeader{Name: "canneal", Meta: true}) {
		t.Fatalf("header %+v, want a canneal metadata stream", h)
	}
	var rec trace.Record
	for i, a := range want.Accesses {
		if err := r.Next(&rec); err != nil {
			t.Fatalf("record %d of %d: %v", i, want.Len(), err)
		}
		if got := (trace.Access{Addr: rec.Addr, Write: rec.Write, Class: rec.Class, Cost: rec.Cost}); got != a || rec.Gap != 0 {
			t.Fatalf("record %d = %+v, want %+v with no gap", i, rec, a)
		}
	}
	if err := r.Next(&rec); err != io.EOF {
		t.Fatalf("after %d records: %v, want a clean end", want.Len(), err)
	}
}

// info reports a metadata trace as one, without the workload-only
// mean gap.
func TestInfoOnMetadataTrace(t *testing.T) {
	path := recordCanneal(t)
	out := captureStdout(t, func() error { return withReader([]string{path}, info) })
	if !strings.HasPrefix(out, "metadata trace of canneal\ntrace: ") {
		t.Errorf("info output does not open with the metadata header:\n%s", out)
	}
	if strings.Contains(out, "mean gap") {
		t.Errorf("info prints a mean gap for a metadata trace:\n%s", out)
	}
	for _, kind := range []string{"counter", "hash", "tree"} {
		if !strings.Contains(out, "\n"+kind+" ") {
			t.Errorf("info has no %s row:\n%s", kind, out)
		}
	}
}

// A metadata trace is not a workload: both the replay generator and
// `maps run -trace` refuse it, naming the recorder to use instead.
func TestMetadataTraceRefusedForReplay(t *testing.T) {
	path := recordCanneal(t)
	if _, err := workload.NewTraceReplay(path); err == nil || !strings.Contains(err.Error(), "mapstrace record-workload") {
		t.Errorf("NewTraceReplay err = %v, want a refusal naming mapstrace record-workload", err)
	}

	if testing.Short() {
		t.Skip("builds and runs the maps binary")
	}
	bin := filepath.Join(t.TempDir(), "maps")
	if out, err := exec.Command("go", "build", "-o", bin, "../maps").CombinedOutput(); err != nil {
		t.Fatalf("build maps: %v\n%s", err, out)
	}
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "run", "-trace", path, "-instructions", "10000")
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Fatal("maps run -trace accepted a metadata trace")
	}
	if !strings.Contains(stderr.String(), "mapstrace record-workload") {
		t.Errorf("maps run -trace stderr does not name mapstrace record-workload:\n%s", stderr.String())
	}
}

// info on a workload stream, plain or gzipped, names the workload and
// its footprint and prints the mean instruction gap.
func TestInfoOnWorkloadTrace(t *testing.T) {
	for _, gz := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "canneal.wtrace")
		args := []string{"-bench", "canneal", "-instructions", "20000", "-out", path}
		if gz {
			args = append(args, "-gz")
		}
		captureStdout(t, func() error { return recordWorkload(args) })
		out := captureStdout(t, func() error { return withReader([]string{path}, info) })
		if !strings.HasPrefix(out, "workload: canneal (footprint ") {
			t.Errorf("gz=%v: info output does not open with the workload header:\n%s", gz, out)
		}
		if !strings.Contains(out, ", mean gap ") {
			t.Errorf("gz=%v: info prints no mean gap for a workload trace:\n%s", gz, out)
		}
		if !strings.Contains(out, "\ndata ") {
			t.Errorf("gz=%v: info has no data row:\n%s", gz, out)
		}
	}
}

// analyze reports a reuse-distance row for each metadata kind the
// recording saw, and none for data.
func TestAnalyzeOnMetadataTrace(t *testing.T) {
	path := recordCanneal(t)
	out := captureStdout(t, func() error { return withReader([]string{path}, analyze) })
	if !strings.HasPrefix(out, "kind ") {
		t.Errorf("analyze output does not open with its header row:\n%s", out)
	}
	for _, kind := range []string{"counter", "hash", "tree"} {
		if !strings.Contains(out, "\n"+kind+" ") {
			t.Errorf("analyze has no %s row:\n%s", kind, out)
		}
	}
	if strings.Contains(out, "\ndata ") {
		t.Errorf("analyze has a data row for a metadata trace:\n%s", out)
	}
}
