// Command benchcheck is the perf-regression gate around the hot-loop
// benchmarks. It parses `go test -bench -benchmem` output on stdin
// and either records it into the committed baseline file
// (BENCH_kernel.json, mode -update) or compares it against that
// baseline and exits nonzero on a regression (mode -baseline).
//
// Repeated -count runs of the same benchmark are collapsed to the
// fastest run: on a shared machine the minimum is the measurement
// least polluted by steal time, and comparisons between minima are
// far more stable than between means.
//
//	go test -run '^$' -bench . -benchmem -count 5 ./internal/sim | benchcheck -update
//	go test -run '^$' -bench . -benchmem -count 5 ./internal/sim | benchcheck -baseline BENCH_kernel.json -tolerance 0.10
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Entry is one benchmark's measured figures.
type Entry struct {
	NsPerOp        float64 `json:"ns_per_op"`
	BytesPerOp     float64 `json:"b_per_op"`
	AllocsPerOp    float64 `json:"allocs_per_op"`
	AccessesPerSec float64 `json:"accesses_per_sec,omitempty"`
}

// Machine stamps where figures were measured. Absolute ns/op only
// compare on like machines, and a run's placement depends on the CPU
// budget (a secure run pipelines on two or more CPUs).
type Machine struct {
	CPU        string `json:"cpu,omitempty"` // the benchmark output's "cpu:" line
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"` // the benchmark names' -N suffix
	GoVersion  string `json:"go_version"`
}

// Baseline is the on-disk layout of BENCH_kernel.json. PrePR freezes
// the numbers measured at the commit before the performance overhaul;
// Current is what `make bench` most recently recorded, on Machine, and
// what the comparison mode gates against.
type Baseline struct {
	Note    string           `json:"note,omitempty"`
	PrePR   map[string]Entry `json:"pre_pr,omitempty"`
	Machine *Machine         `json:"machine,omitempty"`
	Current map[string]Entry `json:"current"`
}

func main() {
	var (
		update    = flag.Bool("update", false, "record stdin into the baseline file's current section")
		out       = flag.String("out", "BENCH_kernel.json", "baseline file written by -update")
		baseline  = flag.String("baseline", "", "baseline file to compare stdin against")
		tolerance = flag.Float64("tolerance", 0.10, "allowed fractional ns/op growth before failing")
	)
	flag.Parse()

	got, mach, err := parseBench(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if len(got) == 0 {
		fatal(fmt.Errorf("no benchmark lines found on stdin"))
	}

	switch {
	case *update:
		if err := writeBaseline(*out, got, mach); err != nil {
			fatal(err)
		}
	case *baseline != "":
		if err := compare(*baseline, got, *tolerance); err != nil {
			fatal(err)
		}
		fmt.Printf("benchcheck: %d benchmarks within %.0f%% of baseline\n", len(got), *tolerance*100)
	default:
		fatal(fmt.Errorf("one of -update or -baseline is required"))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcheck:", err)
	os.Exit(1)
}

// parseBench extracts Entry values from testing's benchmark output,
// keeping the fastest (minimum ns/op) run per benchmark name, and
// stamps the machine it ran on. The trailing -N GOMAXPROCS suffix is
// stripped from names so baselines survive a core-count change; it is
// kept in the stamp instead.
func parseBench(f *os.File) (map[string]Entry, Machine, error) {
	got := make(map[string]Entry)
	mach := Machine{NumCPU: runtime.NumCPU(), GOMAXPROCS: 1, GoVersion: runtime.Version()}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if cpu, ok := strings.CutPrefix(sc.Text(), "cpu: "); ok {
			mach.CPU = strings.TrimSpace(cpu)
		}
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if n, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
				mach.GOMAXPROCS = n
			}
		}
		var e Entry
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				e.NsPerOp = v
				seen = true
			case "B/op":
				e.BytesPerOp = v
			case "allocs/op":
				e.AllocsPerOp = v
			case "accesses/s":
				e.AccessesPerSec = v
			}
		}
		if !seen {
			continue
		}
		if prev, ok := got[name]; !ok || e.NsPerOp < prev.NsPerOp {
			got[name] = e
		}
	}
	return got, mach, sc.Err()
}

// readBaseline loads a baseline file.
func readBaseline(path string) (Baseline, error) {
	var base Baseline
	raw, err := os.ReadFile(path)
	if err != nil {
		return base, err
	}
	if err := json.Unmarshal(raw, &base); err != nil {
		return base, fmt.Errorf("%s: %w", path, err)
	}
	return base, nil
}

// writeBaseline replaces the file's current section and machine
// stamp with got and mach. The pre_pr section and note survive; a
// brand-new file freezes got as pre_pr too so the very first -update
// establishes both points.
func writeBaseline(path string, got map[string]Entry, mach Machine) error {
	base := Baseline{
		Note: "Hot-loop benchmark baseline (see docs/PERFORMANCE.md). " +
			"Regenerate with `make bench`; `make check` fails on ns/op regressions vs the current section.",
	}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &base); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if base.PrePR == nil {
		base.PrePR = got
	}
	base.Current = got
	base.Machine = &mach
	buf, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// compare fails if any baseline benchmark is missing from got, any
// got benchmark is missing from the baseline (a new benchmark must be
// recorded with `make bench` before the gate knows its floor), got
// slower by more than the tolerance fraction, or allocates more than
// the baseline (plus one alloc of slack for map-growth timing).
func compare(path string, got map[string]Entry, tolerance float64) error {
	base, err := readBaseline(path)
	if err != nil {
		return err
	}
	if len(base.Current) == 0 {
		return fmt.Errorf("%s has no current section; run `make bench` first", path)
	}
	var bad []string
	for name, want := range base.Current {
		have, ok := got[name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: missing from input", name))
			continue
		}
		if limit := want.NsPerOp * (1 + tolerance); have.NsPerOp > limit {
			bad = append(bad, fmt.Sprintf("%s: %.0f ns/op exceeds baseline %.0f ns/op by more than %.0f%%",
				name, have.NsPerOp, want.NsPerOp, tolerance*100))
		}
		if have.AllocsPerOp > want.AllocsPerOp+1 {
			bad = append(bad, fmt.Sprintf("%s: %.0f allocs/op exceeds baseline %.0f allocs/op",
				name, have.AllocsPerOp, want.AllocsPerOp))
		}
	}
	for name := range got {
		if _, ok := base.Current[name]; !ok {
			bad = append(bad, fmt.Sprintf("%s: not in baseline; run `make bench` to record it", name))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("performance regression vs %s:\n  %s", path, strings.Join(bad, "\n  "))
	}
	return nil
}
