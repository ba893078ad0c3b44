package experiments

import (
	"fmt"
	"strings"

	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/plot"
	"github.com/maps-sim/mapsim/internal/reuse"
	"github.com/maps-sim/mapsim/internal/sweep"
)

// This file gives each figure result an ASCII-chart rendering so
// `cmd/maps -plot` can show figure-shaped output, not just tables.

// RenderChart draws Figure 1 as one MPKI-vs-size line chart per
// benchmark.
func (r *Fig1Result) RenderChart() string {
	var sb strings.Builder
	ticks := make([]string, len(r.Sizes))
	for i, s := range r.Sizes {
		ticks[i] = sweep.SizeLabel(s)
	}
	for _, b := range r.Benchmarks {
		c := plot.LineChart{
			Title:  fmt.Sprintf("Figure 1 (%s): metadata MPKI vs cache size", b),
			XTicks: ticks,
		}
		for _, content := range r.Contents {
			ys := make([]float64, len(r.Sizes))
			for i, s := range r.Sizes {
				ys[i] = r.MPKI[b][content][s]
			}
			c.Series = append(c.Series, plot.Series{Name: content.String(), Y: ys})
		}
		sb.WriteString(c.Render())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// RenderChart draws Figure 2 as one normalized-ED² chart per series,
// one line per LLC size.
func (r *Fig2Result) RenderChart() string {
	var sb strings.Builder
	ticks := make([]string, len(r.Metas))
	for i, m := range r.Metas {
		ticks[i] = sweep.SizeLabel(m)
	}
	for _, series := range []string{"average", "canneal"} {
		data := r.Norm[series]
		if data == nil {
			continue
		}
		c := plot.LineChart{
			Title:  fmt.Sprintf("Figure 2 (%s): normalized ED^2 vs metadata cache size", series),
			XTicks: ticks,
		}
		for _, llc := range r.LLCs {
			ys := make([]float64, len(r.Metas))
			for i, m := range r.Metas {
				ys[i] = data[llc][m]
			}
			c.Series = append(c.Series, plot.Series{Name: "LLC " + sweep.SizeLabel(llc), Y: ys})
		}
		sb.WriteString(c.Render())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// RenderChart draws Figure 3 as a CDF line chart per benchmark.
func (r *Fig3Result) RenderChart() string {
	var sb strings.Builder
	ticks := make([]string, len(r.Thresholds))
	for i, th := range r.Thresholds {
		ticks[i] = sweep.SizeLabel(int(th))
	}
	for _, b := range r.Benchmarks {
		c := plot.LineChart{
			Title:  fmt.Sprintf("Figure 3 (%s): reuse-distance CDF", b),
			XTicks: ticks,
			YMax:   1,
		}
		for _, k := range memlayout.MetaKinds {
			c.Series = append(c.Series, plot.Series{Name: k.String(), Y: r.CDF[b][k]})
		}
		sb.WriteString(c.Render())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// RenderChart draws Figure 4 as normalized stacked bars.
func (r *Fig4Result) RenderChart() string {
	c := plot.StackedChart{
		Title:  "Figure 4: metadata accesses by reuse-distance class",
		Width:  48,
		Legend: reuse.ClassLabels[:],
	}
	for _, b := range r.Benchmarks {
		cl := r.Classes[b]
		c.Bars = append(c.Bars, plot.StackedBar{Label: b, Segments: cl[:]})
	}
	return c.Render()
}

// RenderChart draws Figure 6 as one policy bar chart per benchmark.
func (r *Fig6Result) RenderChart() string {
	var sb strings.Builder
	for _, b := range r.Benchmarks {
		c := plot.BarChart{
			Title: fmt.Sprintf("Figure 6 (%s): metadata MPKI by policy", b),
			Width: 40,
		}
		for _, p := range r.Policies {
			c.Bars = append(c.Bars, plot.Bar{Label: p, Value: r.MPKI[b][p]})
		}
		sb.WriteString(c.Render())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// RenderChart draws Figure 7 as one scheme bar chart per benchmark.
func (r *Fig7Result) RenderChart() string {
	var sb strings.Builder
	for _, b := range r.Benchmarks {
		c := plot.BarChart{
			Title: fmt.Sprintf("Figure 7 (%s): ED^2 overhead by partitioning scheme", b),
			Width: 40,
		}
		for _, s := range Fig7Schemes {
			c.Bars = append(c.Bars, plot.Bar{Label: s, Value: r.Overhead[b][s]})
		}
		sb.WriteString(c.Render())
		sb.WriteByte('\n')
	}
	return sb.String()
}
