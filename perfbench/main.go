// Command perfbench is the repository's benchmark. It measures one
// workload per invocation — a single-goroutine secure simulation,
// with the benchmark chosen so that a different simulation layer
// dominates each workload, alternating with rounds of an in-process
// mapsd sweep service — checks every output, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as the last line
// of standard output. README.md explains the design.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload secure-canneal --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// digestSeeds are the seeds whose results are recorded in
// digests.json: the default seed and one held out from tuning.
var digestSeeds = []int64{1, 20181021}

//go:embed digests.json
var digestsJSON []byte

// recordedDigests maps workload → seed → result digest at
// checkInstructions.
var recordedDigests map[string]map[string]string

//go:embed predictions.json
var predictionsJSON []byte

// prediction names the end-to-end metrics a per-layer metric should
// move, and on which workloads. predictions.json also gives each a
// note saying why.
type prediction struct {
	Layer     string   `json:"layer"`
	Moves     []string `json:"moves"`
	Workloads []string `json:"workloads"`
}

var predictions []prediction

func init() {
	if err := json.Unmarshal(digestsJSON, &recordedDigests); err != nil {
		panic(fmt.Sprintf("digests.json: %v", err))
	}
	if err := json.Unmarshal(predictionsJSON, &predictions); err != nil {
		panic(fmt.Sprintf("predictions.json: %v", err))
	}
}

// tally counts operations attempted and failed. Every failure is also
// reported on standard error.
type tally struct {
	attempted, failed int
}

func (t *tally) attempt() { t.attempted++ }

func (t *tally) fail(err error) {
	t.failed++
	if t.failed <= 20 {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
	}
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "simulation-phase measuring time")
		trace   = flag.Int("trace", 0, "1 runs the traced measurement and prints per-layer metrics")
		work    = flag.String("work", filepath.Join(".bench_build", "perfbench-work"), "directory for scratch state and span files")
		record  = flag.Bool("record-digests", false, "print the digests.json the current code produces, then exit")
	)
	flag.Parse()
	if *record {
		if err := printDigests(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, err := lookupWorkload(*name)
	if err == nil && (*trace < 0 || *trace > 1 || *seconds < 1) {
		err = fmt.Errorf("--trace must be 0 or 1 and --seconds at least 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out, err := run(w, fullPlan(*seconds), *seed, *trace == 1, *work, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// run measures workload w and returns the result line. Lines before it
// (the machine stamp and, when tracing, the per-layer ledger) go to
// log.
func run(w workloadDef, p plan, seed int64, traced bool, work string, log *os.File) (*output, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	stamp := machineStamp(dir)
	stamp["workload"], stamp["seed"], stamp["trace"] = w.name, strconv.FormatInt(seed, 10), strconv.FormatBool(traced)
	if line, err := json.Marshal(map[string]any{"machine": stamp}); err == nil {
		fmt.Fprintln(log, string(line))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 160*time.Second)
	defer cancel()
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	t := &tally{}
	sv, err := newServicePhase(w, p, seed)
	if err != nil {
		return nil, err
	}
	checkDigests(t, w)
	// Simulation batches alternate with service rounds, so both sample
	// the whole run; no service goroutine exists while simulating.
	sp := &simPhase{}
	for r := 0; r < p.rounds; r++ {
		sp.measure(t, rec, secureConfig(w.bench, p.simInstructions, seed), p, p.simBudget/time.Duration(p.rounds))
		if err := sv.round(ctx, t, rec, p, dir, r); err != nil {
			return nil, err
		}
	}
	if err := sv.finish(ctx, t, rec, p, dir, seed); err != nil {
		return nil, err
	}
	c := sv.counts
	for _, bad := range []uint64{c.shed, c.retries, c.droppedDiskPuts, c.droppedAppends, c.quarantined, c.diskErrors} {
		t.failed += int(bad)
	}

	out := &output{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	if traced {
		layerMetrics(out.Metrics, sp, sv, rec)
		printLedger(log, w.name, out.Metrics)
		path := filepath.Join(work, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
		if err := rec.write(path, stamp); err != nil {
			return nil, err
		}
	} else {
		endToEnd(out.Metrics, sp, sv)
	}
	for name, m := range out.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.fail(fmt.Errorf("metric %s is %v", name, m.Value))
			out.Failed = t.failed
		}
	}
	out.Correct = out.Failed == 0
	return out, nil
}

// endToEnd fills the untraced run's metrics; README.md defines each.
func endToEnd(m map[string]metric, sp *simPhase, sv *servicePhase) {
	m["sim_minstr_per_s"] = metric{median(sp.minstrPerS), "Minstr/s"}
	m["setup_s"] = metric{median(sp.setupS), "s"}
	m["heap_peak_mb"] = metric{float64(sp.heapPeak) / (1 << 20), "MB"}
	m["alloc_mb"] = metric{median(sp.allocMB), "MB"}
	m["sweep_points_per_cpu_s"] = metric{median(sv.coldPointsPerCPUs), "points/cpu_s"}
	m["cached_points_per_cpu_s"] = metric{median(sv.memPointsPerCPUs), "points/cpu_s"}
	m["job_ms_p50"] = metric{quantile(sv.jobMS, 0.50), "ms"}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerMetrics fills the traced run's metrics from its spans, the
// replayed figures and the service's counters.
func layerMetrics(m map[string]metric, sp *simPhase, sv *servicePhase, rec *recorder) {
	self := rec.selfTimes()
	f := sp.figs
	reps := uint64(max(len(sp.stageRatio), 1))
	kilo := float64(f.Instructions) / 1000
	events := f.Reads + f.Writebacks
	m["workload.ns_per_access"] = metric{float64(self[spanWorkload]) / float64(sp.accesses), "ns"}
	m["workload.accesses"] = metric{float64(sp.accesses / reps), "count"}
	m["hierarchy.ns_per_access"] = metric{float64(self[spanHierarchy]) / float64(sp.accesses), "ns"}
	m["hierarchy.l1_hit_rate"] = metric{ratio(f.Hier[0].Hits, f.Hier[0].Accesses), "ratio"}
	m["hierarchy.l2_hit_rate"] = metric{ratio(f.Hier[1].Hits, f.Hier[1].Accesses), "ratio"}
	m["hierarchy.llc_mpki"] = metric{float64(f.Hier[2].Misses) / kilo, "per_kinstr"}
	m["hierarchy.llc_writebacks_pki"] = metric{float64(f.Hier[2].DirtyEvicts) / kilo, "per_kinstr"}
	m["engine.ns_per_event"] = metric{float64(self[spanEngine]) / float64(sp.events), "ns"}
	m["engine.events"] = metric{float64(sp.events / reps), "count"}
	m["engine.writeback_frac"] = metric{ratio(f.Writebacks, events), "ratio"}
	m["engine.mem_per_event"] = metric{ratio(f.Mem.Metadata(), events), "ratio"}
	m["engine.tree_levels_per_read"] = metric{ratio(f.TreeWalkLevels, f.Reads), "ratio"}
	m["engine.page_reencryptions"] = metric{float64(f.PageReencryptions), "count"}
	m["metacache.counter_hit_rate"] = metric{ratio(f.Meta[0].Hits, f.Meta[0].Accesses), "ratio"}
	m["metacache.hash_hit_rate"] = metric{ratio(f.Meta[1].Hits, f.Meta[1].Accesses), "ratio"}
	m["metacache.tree_hit_rate"] = metric{ratio(f.Meta[2].Hits, f.Meta[2].Accesses), "ratio"}
	m["metacache.meta_mpki"] = metric{float64(f.Meta[0].Misses+f.Meta[1].Misses+f.Meta[2].Misses) / kilo, "per_kinstr"}
	m["dram.accesses"] = metric{float64(f.DRAM.Accesses()), "count"}
	m["dram.row_hit_rate"] = metric{f.DRAM.RowHitRate(), "ratio"}
	m["sim.stage_sum_ratio"] = metric{median(sp.stageRatio), "ratio"}
	m["sim.trace_overhead"] = metric{median(sp.overhead), "ratio"}

	us := func(name string) float64 { return median(rec.durations(name)) / 1e3 }
	m["results.key_us"] = metric{us("results.key"), "us"}
	m["job_ms_p99"] = metric{quantile(sv.jobMS, 0.99), "ms"}
	m["server.submit_us_p50"] = metric{us("client.submit"), "us"}
	m["store.mem_get_us"] = metric{us("store.get_mem"), "us"}
	m["store.disk_get_us"] = metric{us("store.get_disk"), "us"}
	m["store.put_us"] = metric{sv.putUS, "us"}
	m["journal.append_us_always"] = metric{us("journal.append_always"), "us"}
	m["journal.append_us_interval"] = metric{us("journal.append_interval"), "us"}
	m["fleet.overhead_share"] = metric{median(sv.overheadShare), "ratio"}
	m["service.disk_points_per_cpu_s"] = metric{median(sv.diskPointsPerCPUs), "points/cpu_s"}
	m["service.setup_ms"] = metric{median(sv.setupS) * 1e3, "ms"}
	m["service.heap_peak_mb"] = metric{float64(sv.heapPeak) / (1 << 20), "MB"}
	c := sv.counts
	m["service.points"] = metric{float64(c.points), "count"}
	m["server.deduped"] = metric{float64(c.deduped), "count"}
	m["store.mem_hits"] = metric{float64(c.memHits), "count"}
	m["store.disk_hits"] = metric{float64(c.diskHits), "count"}
	m["store.misses"] = metric{float64(c.misses), "count"}
	m["journal.appends"] = metric{float64(c.journalAppends), "count"}
	m["server.shed"] = metric{float64(c.shed), "count"}
	m["client.retries"] = metric{float64(c.retries), "count"}
}

// printLedger writes each per-layer metric beside the end-to-end
// metric and workloads it is predicted to move.
func printLedger(log *os.File, workload string, m map[string]metric) {
	for _, p := range predictions {
		v, ok := m[p.Layer]
		if !ok {
			continue
		}
		line, err := json.Marshal(map[string]any{
			"layer": p.Layer, "value": v.Value, "unit": v.Unit, "workload": workload,
			"moves": p.Moves, "on": p.Workloads,
		})
		if err == nil {
			fmt.Fprintln(log, string(line))
		}
	}
}

// printDigests prints digests.json for the current code.
func printDigests() error {
	out := map[string]map[string]string{}
	for _, w := range workloads {
		out[w.name] = map[string]string{}
		for _, seed := range digestSeeds {
			res, err := runCheck(w, seed)
			if err != nil {
				return err
			}
			out[w.name][strconv.FormatInt(seed, 10)] = digestOf(res)
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
