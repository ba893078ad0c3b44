package main

import (
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestPerformanceDocMatchesBaseline keeps the "Measured outcome"
// table in docs/PERFORMANCE.md from drifting: every figure in it must
// be exactly the committed BENCH_kernel.json value, and every
// benchmark in the baseline's current section must have a row.
func TestPerformanceDocMatchesBaseline(t *testing.T) {
	base, err := readBaseline("../../BENCH_kernel.json")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../../docs/PERFORMANCE.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, "\n## Measured outcome\n")
	if start < 0 {
		t.Fatal(`docs/PERFORMANCE.md has no "## Measured outcome" section`)
	}
	section := doc[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}

	// num parses a table cell such as "9,024,017" or "77.17".
	num := func(cell string) (float64, bool) {
		v, err := strconv.ParseFloat(strings.ReplaceAll(cell, ",", ""), 64)
		return v, err == nil
	}
	seen := make(map[string]bool)
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if len(cells) != 5 {
			t.Errorf("row %q: want 5 cells (name, pre-overhaul ns/op, ns/op, allocs/op, accesses/s)", line)
			continue
		}
		name := "Benchmark" + strings.Trim(cells[0], "`")
		seen[name] = true
		cur, ok := base.Current[name]
		if !ok {
			t.Errorf("%s: in the doc table but not in the baseline's current section", name)
			continue
		}
		pre, hasPre := base.PrePR[name]
		checks := []struct {
			what string
			cell string
			want float64
			skip bool
		}{
			{"pre-overhaul ns/op", cells[1], pre.NsPerOp, !hasPre},
			{"ns/op", cells[2], cur.NsPerOp, false},
			{"allocs/op", cells[3], cur.AllocsPerOp, false},
			{"accesses/s", cells[4], cur.AccessesPerSec, false},
		}
		for _, c := range checks {
			if c.skip {
				if c.cell != "—" {
					t.Errorf("%s: %s is %q, but the baseline has no such figure (want —)", name, c.what, c.cell)
				}
				continue
			}
			if got, ok := num(c.cell); !ok || got != c.want {
				t.Errorf("%s: %s is %q in the doc, %v in BENCH_kernel.json", name, c.what, c.cell, c.want)
			}
		}
	}
	for name := range base.Current {
		if !seen[name] {
			t.Errorf("%s: in the baseline but missing from the doc table", name)
		}
	}
}
