package sweep

import (
	"fmt"
	"strings"
	"time"

	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/stats"
)

// Metrics names a sweep can aggregate and pivot on; see Metric.
func Metrics() []string {
	return []string{"llc_mpki", "meta_mpki", "ipc", "ed2", "meta_hit_rate", "mem_accesses", "energy_pj"}
}

// Metric extracts a named scalar from a simulation result. Unknown
// names return an error so misspelled pivots fail loudly.
func Metric(name string, r *sim.Result) (float64, error) {
	switch name {
	case "llc_mpki":
		return r.LLCMPKI, nil
	case "meta_mpki":
		return r.MetaMPKI, nil
	case "ipc":
		return r.IPC, nil
	case "ed2":
		return r.ED2, nil
	case "meta_hit_rate":
		return r.MetaHitRate, nil
	case "mem_accesses":
		return float64(r.DRAM.Accesses()), nil
	case "energy_pj":
		return r.EnergyPJ, nil
	}
	return 0, fmt.Errorf("sweep: unknown metric %q (want one of %v)", name, Metrics())
}

// AxisGeomean is one axis label's aggregate across every point that
// carries it: geometric means over the strictly positive entries
// (sim.GeomeanPositive semantics — zeros, like MetaMPKI on insecure
// points, are excluded rather than flooring the mean).
type AxisGeomean struct {
	// Axis and Label locate the group (e.g. axis "meta", label "64KB").
	Axis  string `json:"axis"`
	Label string `json:"label"`
	// Points counts the group's members.
	Points int `json:"points"`
	// LLCMPKI, MetaMPKI, IPC, and ED2 are the group geomeans.
	LLCMPKI  float64 `json:"llc_mpki"`
	MetaMPKI float64 `json:"meta_mpki"`
	IPC      float64 `json:"ipc"`
	ED2      float64 `json:"ed2"`
}

// Result is a completed sweep: every point in grid order plus the
// aggregates.
type Result struct {
	// Points holds one entry per grid point, in Expand order
	// regardless of completion order.
	Points []PointResult `json:"points"`
	// Total, Done, and Deduped count grid size, completed points, and
	// points served from the results cache without simulating.
	Total   int `json:"total"`
	Done    int `json:"done"`
	Deduped int `json:"deduped"`
	// Geomeans aggregates every swept axis. Axes with a single label
	// are skipped, as their geomean is the whole sweep's, and so are
	// axes on which every label covers one point (a sweep over the
	// benchmark axis alone, as every suite is), as each geomean would
	// repeat that point's own metrics.
	Geomeans []AxisGeomean `json:"geomeans,omitempty"`
	// Wall is the sweep's host wall-clock time.
	Wall time.Duration `json:"wall_ns"`
}

// pointLabels returns every point's label on axis, in grid order.
func (r *Result) pointLabels(axis string) []string {
	labels := make([]string, len(r.Points))
	for i := range r.Points {
		labels[i] = r.Points[i].Label(axis)
	}
	return labels
}

// distinct returns the distinct labels in first-seen order.
func distinct(labels []string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, l := range labels {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

// axisLabels returns the distinct labels of an axis in grid order.
func (r *Result) axisLabels(axis string) []string { return distinct(r.pointLabels(axis)) }

// Suite reduces a sweep over the benchmark axis alone to the suite
// report, sim.SuiteResult: each point's benchmark in grid order, its
// result, and the suite geomeans. A suite is such a sweep, local
// (mapsim.RunSuite) or on a daemon (`maps run -suite -remote`), and
// both report through this one reduction.
func (r *Result) Suite() *sim.SuiteResult {
	order := make([]string, len(r.Points))
	results := make([]*sim.Result, len(r.Points))
	for i, p := range r.Points {
		order[i], results[i] = p.Benchmark, p.Result
	}
	return sim.NewSuiteResult(order, results, r.Wall)
}

// Aggregate fills Geomeans for every axis that actually varies and
// groups more than one point under some label. The fleet coordinator
// calls it once, after the last point lands; the computation is
// deterministic in the grid order, so two sweeps of the same spec
// aggregate byte-identically no matter which worker ran which point.
// Each point's label on each axis is rendered once.
func (r *Result) Aggregate() {
	for _, axis := range AxisNames() {
		labels := r.pointLabels(axis)
		groups := distinct(labels)
		if len(groups) < 2 || len(groups) == len(labels) {
			continue
		}
		for _, label := range groups {
			var llc, meta, ipc, ed2 []float64
			n := 0
			for i := range r.Points {
				p := &r.Points[i]
				if p.Result == nil || labels[i] != label {
					continue
				}
				n++
				llc = append(llc, p.Result.LLCMPKI)
				meta = append(meta, p.Result.MetaMPKI)
				ipc = append(ipc, p.Result.IPC)
				ed2 = append(ed2, p.Result.ED2)
			}
			r.Geomeans = append(r.Geomeans, AxisGeomean{
				Axis: axis, Label: label, Points: n,
				LLCMPKI:  sim.GeomeanPositive(llc),
				MetaMPKI: sim.GeomeanPositive(meta),
				IPC:      sim.GeomeanPositive(ipc),
				ED2:      sim.GeomeanPositive(ed2),
			})
		}
	}
}

// Pivot renders metric as a rowAxis × colAxis table: each cell is the
// geometric mean (GeomeanPositive) of the metric over the points at
// that coordinate, "-" where no point has a result. Label order
// follows the grid.
func (r *Result) Pivot(rowAxis, colAxis, metric string) (string, error) {
	if _, err := Metric(metric, &sim.Result{}); err != nil {
		return "", err
	}
	rows := r.axisLabels(rowAxis)
	cols := r.axisLabels(colAxis)
	if len(rows) == 0 || len(cols) == 0 {
		return "", fmt.Errorf("sweep: empty pivot (%s × %s)", rowAxis, colAxis)
	}
	var t stats.Table
	header := append([]string{rowAxis + `\` + colAxis}, cols...)
	t.AddRow(header...)
	for _, row := range rows {
		cells := []string{row}
		for _, col := range cols {
			var vals []float64
			for i := range r.Points {
				p := &r.Points[i]
				if p.Result == nil || p.Label(rowAxis) != row || p.Label(colAxis) != col {
					continue
				}
				v, _ := Metric(metric, p.Result)
				vals = append(vals, v)
			}
			if len(vals) == 0 {
				cells = append(cells, "-")
			} else {
				cells = append(cells, fmt.Sprintf("%.3f", sim.GeomeanPositive(vals)))
			}
		}
		t.AddRow(cells...)
	}
	return fmt.Sprintf("%s geomeans, %s × %s:\n%s", metric, rowAxis, colAxis, t.String()), nil
}

// variedAxes lists the axes with more than one label, in grid order.
func (r *Result) variedAxes() []string {
	var varied []string
	for _, axis := range AxisNames() {
		if len(r.axisLabels(axis)) > 1 {
			varied = append(varied, axis)
		}
	}
	return varied
}

// Render prints the sweep summary: the run counters, a pivot of the
// first two varied axes (benchmark rows when present), and the
// per-axis geomean table. A sweep that varies fewer than two axes
// falls back to a flat per-point listing.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep: %d points (%d deduped) in %s\n",
		r.Total, r.Deduped, r.Wall.Round(time.Millisecond))
	varied := r.variedAxes()
	if len(varied) >= 2 {
		for _, metric := range []string{"meta_mpki", "ipc"} {
			if pv, err := r.Pivot(varied[0], varied[1], metric); err == nil {
				b.WriteString("\n" + pv)
			}
		}
	} else {
		var t stats.Table
		t.AddRow("point", "LLC MPKI", "meta MPKI", "IPC", "ED2")
		for i := range r.Points {
			p := &r.Points[i]
			if p.Result == nil {
				t.AddRow(p.String(), "-", "-", "-", "-")
				continue
			}
			t.AddRow(p.String(),
				fmt.Sprintf("%.2f", p.Result.LLCMPKI),
				fmt.Sprintf("%.2f", p.Result.MetaMPKI),
				fmt.Sprintf("%.3f", p.Result.IPC),
				fmt.Sprintf("%.3g", p.Result.ED2))
		}
		b.WriteString("\n" + t.String())
	}
	if len(r.Geomeans) > 0 {
		var t stats.Table
		t.AddRow("axis", "label", "points", "LLC MPKI", "meta MPKI", "IPC", "ED2")
		for _, g := range r.Geomeans {
			t.AddRow(g.Axis, g.Label, fmt.Sprintf("%d", g.Points),
				fmt.Sprintf("%.2f", g.LLCMPKI),
				fmt.Sprintf("%.2f", g.MetaMPKI),
				fmt.Sprintf("%.3f", g.IPC),
				fmt.Sprintf("%.3g", g.ED2))
		}
		b.WriteString("\nper-axis geomeans:\n" + t.String())
	}
	return b.String()
}
