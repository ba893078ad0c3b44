package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTempBaseline(t *testing.T, current map[string]Entry) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH.json")
	buf, err := json.Marshal(Baseline{Current: current})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareWithinTolerance(t *testing.T) {
	path := writeTempBaseline(t, map[string]Entry{
		"BenchmarkRunSecure": {NsPerOp: 100, AllocsPerOp: 10},
	})
	got := map[string]Entry{
		"BenchmarkRunSecure": {NsPerOp: 105, AllocsPerOp: 10},
	}
	if err := compare(path, got, 0.10); err != nil {
		t.Fatalf("5%% growth under a 10%% tolerance must pass: %v", err)
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	path := writeTempBaseline(t, map[string]Entry{
		"BenchmarkRunSecure": {NsPerOp: 100, AllocsPerOp: 10},
	})
	got := map[string]Entry{
		"BenchmarkRunSecure": {NsPerOp: 150, AllocsPerOp: 10},
	}
	err := compare(path, got, 0.10)
	if err == nil || !strings.Contains(err.Error(), "exceeds baseline") {
		t.Fatalf("50%% growth must fail the gate, got %v", err)
	}
}

func TestCompareFlagsMissingFromInput(t *testing.T) {
	path := writeTempBaseline(t, map[string]Entry{
		"BenchmarkRunSecure":   {NsPerOp: 100},
		"BenchmarkRunInsecure": {NsPerOp: 50},
	})
	got := map[string]Entry{
		"BenchmarkRunSecure": {NsPerOp: 100},
	}
	err := compare(path, got, 0.10)
	if err == nil || !strings.Contains(err.Error(), "missing from input") {
		t.Fatalf("baseline benchmark absent from the run must fail, got %v", err)
	}
}

func TestCompareFlagsMissingFromBaseline(t *testing.T) {
	// The reverse check: a benchmark the current run measures but the
	// committed baseline has never recorded means `make bench` wasn't
	// re-run after adding it — the gate would silently not cover it.
	path := writeTempBaseline(t, map[string]Entry{
		"BenchmarkRunSecure": {NsPerOp: 100},
	})
	got := map[string]Entry{
		"BenchmarkRunSecure":         {NsPerOp: 100},
		"BenchmarkRunSecureParallel": {NsPerOp: 30},
	}
	err := compare(path, got, 0.10)
	if err == nil || !strings.Contains(err.Error(), "not in baseline") {
		t.Fatalf("unrecorded benchmark must fail the gate, got %v", err)
	}
}

func TestParseBenchStampsMachine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.out")
	out := "goos: linux\ncpu: Test CPU @ 1GHz\n" +
		"BenchmarkRunSecure-4   	100	  9000 ns/op	  5 accesses/s	  12 B/op	  3 allocs/op\n" +
		"BenchmarkRunSecure-4   	100	  8000 ns/op	  6 accesses/s	  12 B/op	  3 allocs/op\n"
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, mach, err := parseBench(f)
	if err != nil {
		t.Fatal(err)
	}
	if e := got["BenchmarkRunSecure"]; e.NsPerOp != 8000 || e.AccessesPerSec != 6 {
		t.Errorf("entry = %+v, want the faster run", e)
	}
	if mach.CPU != "Test CPU @ 1GHz" || mach.GOMAXPROCS != 4 || mach.NumCPU < 1 || mach.GoVersion == "" {
		t.Errorf("machine stamp = %+v", mach)
	}
}
