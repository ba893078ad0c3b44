// Command mapstrace records metadata-access traces to disk and
// inspects them. Traces are the raw material of the offline policies
// (MIN, iterMIN, CSOPT) and the reuse analyses; persisting them lets
// expensive characterization runs be analyzed repeatedly.
//
// Usage:
//
//	mapstrace record -bench canneal -out canneal.trace [-instructions N] [-meta 64KB]
//	mapstrace record-workload -bench canneal -out canneal.mtrc [-gz] [-instructions N] [-seed N]
//	mapstrace info canneal.trace
//	mapstrace analyze canneal.trace
//
// record taps the simulator's metadata stream (counters, hashes, tree
// levels); record-workload captures the *workload's* data-access
// stream instead, which `maps run -trace` replays in constant memory.
// Both write the one chunked streaming format, metadata traces with
// their header's Meta bit set, and both stream to disk as they record.
// info and analyze stream their input too, so multi-gigabyte traces
// never load into memory.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/maps-sim/mapsim/internal/cliutil"
	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/reuse"
	"github.com/maps-sim/mapsim/internal/server"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/stats"
	"github.com/maps-sim/mapsim/internal/sweep"
	"github.com/maps-sim/mapsim/internal/trace"
	"github.com/maps-sim/mapsim/internal/workload"
	wspec "github.com/maps-sim/mapsim/internal/workload/spec"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = record(os.Args[2:])
	case "record-workload":
		err = recordWorkload(os.Args[2:])
	case "info":
		err = withReader(os.Args[2:], info)
	case "analyze":
		err = withReader(os.Args[2:], analyze)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mapstrace: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `mapstrace — record and inspect access traces

usage:
  mapstrace record -bench <name> -out <file> [-instructions N] [-meta SIZE]
  mapstrace record-workload (-bench <name> | -spec <file>) -out <file> [-gz] [-instructions N] [-seed N]
  mapstrace info <file>       counts, read/write mix, miss costs
  mapstrace analyze <file>    reuse-distance CDFs per metadata type

record captures the simulator's metadata stream; record-workload
captures a workload generator's data-access stream for constant-memory
replay via "maps run -trace". info and analyze stream their input.`)
}

func record(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	bench := fs.String("bench", "libquantum", "benchmark name")
	out := fs.String("out", "", "output file (required)")
	instructions := fs.Uint64("instructions", 2_000_000, "simulated instructions")
	metaSize := fs.String("meta", "0", "metadata cache size during recording (0 = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("record: -out is required")
	}
	size, err := cliutil.ParseSize(*metaSize)
	if err != nil {
		return err
	}

	cs := server.ConfigSpec{Benchmark: *bench, Instructions: *instructions, Speculation: true}
	if size > 0 {
		cs.Meta = &server.MetaSpec{Size: server.ByteSize(size)}
	}
	p, err := cs.Point()
	if err != nil {
		return err
	}
	cfg, err := sweep.Instantiate(p)
	if err != nil {
		return err
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close() // error paths; success checks Close below
	w, err := trace.NewWriter(f, trace.StreamHeader{Name: *bench, Meta: true}, false)
	if err != nil {
		return err
	}
	cfg.Tap = func(a trace.Access) {
		// A failed write sticks in the Writer, and Close reports it.
		_ = w.Write(trace.Record{Addr: a.Addr, Write: a.Write, Class: a.Class, Cost: a.Cost})
	}
	if _, err := sim.Run(cfg); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("recorded %d metadata accesses from %s to %s\n", w.Count(), *bench, *out)
	return nil
}

// recordWorkload drains a workload generator — a named benchmark or a
// declarative spec — into a streaming trace that `maps run -trace`
// replays in constant memory. It records until the stream's gap sum
// covers the instruction budget plus warmup and slack, so a replay at
// the same -instructions never needs to wrap.
func recordWorkload(args []string) error {
	fs := flag.NewFlagSet("record-workload", flag.ExitOnError)
	bench := fs.String("bench", "", "named benchmark to record")
	specFile := fs.String("spec", "", "workload-spec file (YAML or JSON) to record")
	out := fs.String("out", "", "output file (required)")
	compress := fs.Bool("gz", false, "gzip-compress the record stream")
	instructions := fs.Uint64("instructions", 2_000_000, "instruction budget the recording must cover")
	seed := fs.Int64("seed", 0, "workload seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("record-workload: -out is required")
	}
	if (*bench == "") == (*specFile == "") {
		return fmt.Errorf("record-workload: exactly one of -bench or -spec is required")
	}

	var gen workload.Generator
	if *bench != "" {
		g, err := workload.New(*bench)
		if err != nil {
			return err
		}
		gen = g
	} else {
		data, err := os.ReadFile(*specFile)
		if err != nil {
			return err
		}
		sp, err := wspec.Parse(data)
		if err != nil {
			return fmt.Errorf("%s: %w", *specFile, err)
		}
		if gen, err = sp.Generator(); err != nil {
			return err
		}
	}
	// The simulator maps seed 0 to 1 (sim.Config's default), so do
	// the same here: a default-seed replay then reproduces the
	// default-seed direct run bit for bit.
	if *seed == 0 {
		*seed = 1
	}
	gen.Reset(*seed)

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := trace.NewWriter(f, trace.StreamHeader{
		Name:      gen.Name(),
		Footprint: gen.Footprint(),
	}, *compress)
	if err != nil {
		return err
	}

	// Warmup defaults to Instructions/10; an extra eighth of slack
	// absorbs rounding in the simulator's access scheduling.
	target := *instructions + *instructions/10 + *instructions/8
	var gapSum uint64
	var a workload.Access
	for gapSum < target {
		gen.Next(&a)
		gapSum += uint64(a.Gap)
		rec := trace.Record{Addr: a.Addr, Write: a.Write, Gap: a.Gap}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	fmt.Printf("recorded %d accesses (%d instructions covered) from %s to %s\n",
		w.Count(), gapSum, gen.Name(), *out)
	return nil
}

// withReader opens the single trace-file argument as a streaming
// reader and hands it to fn.
func withReader(args []string, fn func(*trace.Reader) error) error {
	if len(args) != 1 {
		return fmt.Errorf("expected exactly one trace file argument")
	}
	f, err := os.Open(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return fmt.Errorf("reading %s: %w", args[0], err)
	}
	if err := fn(r); err != nil {
		return fmt.Errorf("reading %s: %w", args[0], err)
	}
	return nil
}

func info(r *trace.Reader) error {
	type agg struct {
		reads, writes uint64
		costSum       uint64
		costMax       uint8
	}
	perKind := map[memlayout.Kind]*agg{}
	var total, gapSum uint64
	var rec trace.Record
	for {
		if err := r.Next(&rec); err != nil {
			if err == io.EOF {
				break
			}
			return err
		}
		total++
		gapSum += uint64(rec.Gap)
		k := memlayout.Kind(rec.Class)
		g := perKind[k]
		if g == nil {
			g = &agg{}
			perKind[k] = g
		}
		if rec.Write {
			g.writes++
		} else {
			g.reads++
		}
		g.costSum += uint64(rec.Cost)
		if rec.Cost > g.costMax {
			g.costMax = rec.Cost
		}
	}
	h := r.Header()
	switch {
	case h.Meta:
		fmt.Printf("metadata trace of %s\n", h.Name)
	case h.Name != "":
		fmt.Printf("workload: %s (footprint %d bytes)\n", h.Name, h.Footprint)
	}
	fmt.Printf("trace: %d accesses", total)
	if total > 0 && !h.Meta { // metadata records carry no gaps
		fmt.Printf(", mean gap %.2f", float64(gapSum)/float64(total))
	}
	fmt.Print("\n\n")
	var t stats.Table
	t.AddRow("kind", "reads", "writes", "write%", "avg cost", "max cost")
	kinds := append([]memlayout.Kind{memlayout.KindData}, memlayout.MetaKinds...)
	for _, k := range kinds {
		g := perKind[k]
		if g == nil {
			continue
		}
		n := g.reads + g.writes
		t.AddRow(k.String(),
			fmt.Sprintf("%d", g.reads), fmt.Sprintf("%d", g.writes),
			fmt.Sprintf("%.1f%%", 100*float64(g.writes)/float64(n)),
			fmt.Sprintf("%.2f", float64(g.costSum)/float64(n)),
			fmt.Sprintf("%d", g.costMax))
	}
	fmt.Print(t.String())
	return nil
}

func analyze(r *trace.Reader) error {
	an := reuse.NewAnalyzer(0)
	var rec trace.Record
	for {
		if err := r.Next(&rec); err != nil {
			if err == io.EOF {
				break
			}
			return err
		}
		an.Record(rec.Addr, memlayout.Kind(rec.Class), rec.Write)
	}
	thresholds := []uint64{512, 4 << 10, 32 << 10, 288 << 10, 1 << 20, 16 << 20}
	var t stats.Table
	header := []string{"kind", "accesses", "cold"}
	for _, th := range thresholds {
		switch {
		case th >= 1<<20:
			header = append(header, fmt.Sprintf("<=%dMB", th>>20))
		case th >= 1<<10:
			header = append(header, fmt.Sprintf("<=%dKB", th>>10))
		default:
			header = append(header, fmt.Sprintf("<=%dB", th))
		}
	}
	header = append(header, "bimodality")
	t.AddRow(header...)
	kinds := append([]memlayout.Kind{memlayout.KindData}, memlayout.MetaKinds...)
	for _, k := range kinds {
		if an.Accesses(k) == 0 {
			continue
		}
		row := []string{k.String(), fmt.Sprintf("%d", an.Accesses(k)), fmt.Sprintf("%d", an.ColdAccesses(k))}
		for _, v := range an.CDF(k, thresholds) {
			row = append(row, fmt.Sprintf("%.2f", v))
		}
		row = append(row, fmt.Sprintf("%.2f", an.BimodalityScore(k)))
		t.AddRow(row...)
	}
	fmt.Print(t.String())
	return nil
}
