package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"github.com/maps-sim/mapsim"
	"github.com/maps-sim/mapsim/internal/journal"
	"github.com/maps-sim/mapsim/internal/results"
	"github.com/maps-sim/mapsim/internal/server"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/store"
	"github.com/maps-sim/mapsim/internal/sweep"
)

// memoryEntries is mapsd's default memory-tier capacity, and
// journalSync its default journal fsync policy.
const (
	memoryEntries = 256
	journalSync   = journal.SyncAlways
)

// service is one in-process mapsd with mapsd's defaults — workers =
// NumCPU, a disk store tier and a journal fsynced on every record —
// behind a loopback listener, plus the client that drives it.
type service struct {
	st     *store.Store
	jd     *journal.Dir
	srv    *server.Server
	hs     *http.Server
	served chan error
	tr     *http.Transport
	client *mapsim.Client
}

// startService opens the store and journal under dir and serves them
// until /readyz answers 200; the returned duration is that set-up
// time.
func startService(ctx context.Context, dir string) (*service, time.Duration, error) {
	t0 := time.Now()
	st, err := store.Open(store.Options{Memory: results.New(memoryEntries), Dir: filepath.Join(dir, "store")})
	if err != nil {
		return nil, 0, err
	}
	jd, err := journal.Open(journal.Options{Dir: filepath.Join(dir, "journal"), Sync: journalSync})
	if err != nil {
		st.Close()
		return nil, 0, err
	}
	srv := server.New(server.Config{Store: st, Journal: jd})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(ctx)
		return nil, 0, err
	}
	s := &service{
		st: st, jd: jd, srv: srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		tr:     &http.Transport{MaxIdleConnsPerHost: 4},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	hc := &http.Client{Transport: s.tr}
	s.client = &mapsim.Client{BaseURL: base, HTTPClient: hc}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
		if err != nil {
			s.stop()
			return nil, 0, err
		}
		resp, err := hc.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if ctx.Err() != nil {
			s.stop()
			return nil, 0, ctx.Err()
		}
		time.Sleep(time.Millisecond)
	}
	return s, time.Since(t0), nil
}

// stop closes the listener, drains the server and closes the store,
// returning once the serving goroutine has exited.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.tr.CloseIdleConnections()
	if serr := s.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// serviceCounts are the service's counters summed over every server
// instance of a run; they repeat exactly for a given plan.
type serviceCounts struct {
	points, deduped                 uint64
	memHits, diskHits, misses       uint64
	journalAppends, shed, retries   uint64
	droppedDiskPuts, droppedAppends uint64
	quarantined, diskErrors         uint64
}

func (c *serviceCounts) add(s *service) {
	ss, js := s.st.Stats(), s.jd.Stats()
	c.deduped += s.srv.Deduped()
	c.memHits += ss.MemHits
	c.diskHits += ss.DiskHits
	c.misses += ss.Misses
	c.droppedDiskPuts += ss.DroppedDiskPuts
	c.quarantined += ss.Quarantined
	c.diskErrors += ss.DiskErrors
	c.journalAppends += js.Appends
	c.droppedAppends += js.DroppedAppends
	c.shed += s.srv.ShedCount()
	c.retries += s.client.Retries()
}

// gridPoint is one point of a round's grid as the client knows it.
type gridPoint struct {
	point sweep.Point
	key   results.Key
	job   server.ConfigSpec // the same point as a single-run job
	cold  []byte            // the cold pass's result, as served
}

// gridSweep is one sweep of the grid: the sweep a round serves.
type gridSweep struct {
	req    server.SweepRequest
	points []gridPoint
}

// expandGrid expands req locally the way the server does, so every
// point has its config, content address and job spelling.
func expandGrid(req server.SweepRequest) (*gridSweep, error) {
	base, err := req.Base.ToSim()
	if err != nil {
		return nil, err
	}
	meta := sweep.IntAxis{}
	for _, m := range req.Axes.Meta.Points {
		meta.Points = append(meta.Points, int(m))
	}
	pts, err := sweep.Spec{Base: base, Axes: sweep.Axes{
		Benchmarks: req.Axes.Benchmarks,
		Meta:       meta,
		Contents:   req.Axes.Contents,
		Policies:   req.Axes.Policies,
	}}.Expand()
	if err != nil {
		return nil, err
	}
	g := &gridSweep{req: req}
	for _, p := range pts {
		pol, part := sweep.CacheNames(p)
		key, err := results.PointKeyFor(p.Config, pol, part)
		if err != nil {
			return nil, err
		}
		job, err := server.SpecFromSim(p.Config, pol, part)
		if err != nil {
			return nil, err
		}
		g.points = append(g.points, gridPoint{point: p, key: key, job: job})
	}
	return g, nil
}

// servicePhase holds what the service phase measured.
type servicePhase struct {
	coldPointsPerCPUs []float64 // one per cold sweep
	memPointsPerCPUs  []float64 // one per memory-tier resubmit
	diskPointsPerCPUs []float64 // one per disk-tier resubmit
	jobMS             []float64 // one per cached job
	setupS            []float64 // one per start over a populated store
	overheadShare     []float64 // one per cold sweep
	heapPeak          uint64    // over every round
	counts            serviceCounts
	rounds            []*gridSweep // the sweep each round serves

	putUS float64 // per put, from one traced batch
}

// newServicePhase expands every round's sweep. Each round has its own
// base seed, so each round's cold pass is cold.
func newServicePhase(w workloadDef, p plan, seed int64) (*servicePhase, error) {
	ph := &servicePhase{}
	for r := 0; r < p.rounds; r++ {
		g, err := expandGrid(gridRequest(w, seed, r))
		if err != nil {
			return nil, err
		}
		ph.rounds = append(ph.rounds, g)
	}
	return ph, nil
}

// round r starts the service over dir, drives one closed-loop client
// through four kinds of pass — the round's cold sweep, memory-tier
// resubmits of it, restarts each followed by a disk-tier pass over
// it, and cached single jobs on its points — and stops the service,
// so that no service goroutine outlives the round.
func (ph *servicePhase) round(ctx context.Context, t *tally, rec *recorder, p plan, dir string, r int) error {
	runtime.GC()
	if rec != nil {
		heap := startHeapSampler()
		defer func() { ph.heapPeak = max(ph.heapPeak, heap.stop()) }()
	}

	svc, err := ph.start(ctx, dir, r > 0)
	if err != nil {
		return err
	}
	g := ph.rounds[r]
	if err := ph.coldPass(ctx, t, rec, svc, g, fmt.Sprintf("sweep-cold-%d", r)); err != nil {
		ph.stop(t, svc)
		return err
	}
	for i := 0; i < p.memPasses; i++ {
		ph.cachedPass(ctx, t, rec, svc, g, fmt.Sprintf("sweep-mem-%d-%d", r, i), &ph.memPointsPerCPUs)
	}
	for i := 0; i < p.diskPasses; i++ {
		ph.stop(t, svc)
		if svc, err = ph.start(ctx, dir, true); err != nil {
			return err
		}
		ph.cachedPass(ctx, t, rec, svc, g, fmt.Sprintf("sweep-disk-%d-%d", r, i), &ph.diskPointsPerCPUs)
	}
	// Cached jobs run with the runtime on one P. Client and server
	// share this process, so on two Ps each request and each reply
	// would wake a thread on the other CPU, and on a virtual machine
	// that wake-up's cost is the hypervisor's, not mapsd's (README.md).
	prev := runtime.GOMAXPROCS(1)
	for i := 0; i < p.jobsPerRound; i++ {
		ph.cachedJob(ctx, t, rec, svc, g.points[i%len(g.points)], fmt.Sprintf("job-%d-%d", r, i))
	}
	runtime.GOMAXPROCS(prev)
	ph.stop(t, svc)
	return nil
}

// start serves dir, recording the set-up time when sample is set
// (every start but the first, whose directories are still empty).
func (ph *servicePhase) start(ctx context.Context, dir string, sample bool) (*service, error) {
	svc, setup, err := startService(ctx, dir)
	if err == nil && sample {
		ph.setupS = append(ph.setupS, setup.Seconds())
	}
	return svc, err
}

// stop adds svc's counters to the phase's and shuts it down.
func (ph *servicePhase) stop(t *tally, svc *service) {
	ph.counts.add(svc)
	if err := svc.stop(); err != nil {
		t.fail(fmt.Errorf("service stop: %w", err))
	}
}

// finish runs the directly timed layer calls (only when tracing) and
// re-simulates sample points locally.
func (ph *servicePhase) finish(ctx context.Context, t *tally, rec *recorder, p plan, dir string, seed int64) error {
	if rec != nil {
		if err := ph.probeDiskGets(ctx, t, rec, dir); err != nil {
			return err
		}
		ph.probeKeys(t, rec, p)
		if err := ph.probeWrites(t, rec, filepath.Join(dir, "probe")); err != nil {
			return err
		}
	}
	ph.checkSamples(t, seed)
	return nil
}

// sweepPass submits g's sweep and waits for its result, returning the
// wall time and the process's CPU time from submit to every point in
// hand. Sweep throughput is per CPU second: a sweep keeps every CPU
// busy, so its wall time also counts the time the hypervisor takes
// either CPU away (README.md).
func sweepPass(ctx context.Context, t *tally, rec *recorder, svc *service, g *gridSweep, op, name string) (res *mapsim.SweepResult, wall, cpu time.Duration, ok bool) {
	t.attempt()
	s := rec.begin(0, op, name)
	t0, c0 := time.Now(), processCPUTime()
	res, err := svc.client.RunSweepRemote(ctx, g.req, nil)
	wall, cpu = time.Since(t0), processCPUTime()-c0
	rec.end(s)
	if err != nil {
		t.fail(fmt.Errorf("%s: %w", op, err))
		return nil, 0, 0, false
	}
	if res.Total != len(g.points) || len(res.Points) != len(g.points) || res.Done != res.Total {
		t.fail(fmt.Errorf("%s: %d/%d points of %d", op, res.Done, res.Total, len(g.points)))
		return nil, 0, 0, false
	}
	return res, wall, cpu, true
}

// coldPass submits g for the first time: every point must be
// simulated, and the results it serves become the reference every
// later pass is compared with.
func (ph *servicePhase) coldPass(ctx context.Context, t *tally, rec *recorder, svc *service, g *gridSweep, op string) error {
	res, wall, cpu, ok := sweepPass(ctx, t, rec, svc, g, op, "client.sweep_cold")
	if !ok {
		return fmt.Errorf("%s failed", op)
	}
	if res.Deduped != 0 {
		t.fail(fmt.Errorf("%s: %d points were already cached", op, res.Deduped))
	}
	var busy time.Duration
	for i, pr := range res.Points {
		if pr.Result == nil {
			return fmt.Errorf("%s: point %d has no result", op, i)
		}
		data, err := json.Marshal(pr.Result)
		if err != nil {
			return err
		}
		g.points[i].cold = data
		busy += pr.Result.Timing.Total
	}
	ph.counts.points += uint64(len(res.Points))
	ph.coldPointsPerCPUs = append(ph.coldPointsPerCPUs, float64(len(res.Points))/cpu.Seconds())
	workers := runtime.NumCPU()
	ph.overheadShare = append(ph.overheadShare, 1-busy.Seconds()/(wall.Seconds()*float64(workers)))
	return nil
}

// cachedPass resubmits g, which the store must serve whole, and checks
// every point is byte-equal to its cold result.
func (ph *servicePhase) cachedPass(ctx context.Context, t *tally, rec *recorder, svc *service, g *gridSweep, op string, rate *[]float64) {
	res, _, cpu, ok := sweepPass(ctx, t, rec, svc, g, op, "client.sweep_cached")
	if !ok {
		return
	}
	if res.Deduped != res.Total {
		t.fail(fmt.Errorf("%s: only %d of %d points served from the store", op, res.Deduped, res.Total))
	}
	for i, pr := range res.Points {
		t.attempt()
		data, err := json.Marshal(pr.Result)
		if err != nil || !bytes.Equal(data, g.points[i].cold) {
			t.fail(fmt.Errorf("%s: point %d differs from its cold result", op, i))
		}
	}
	ph.counts.points += uint64(len(res.Points))
	*rate = append(*rate, float64(len(res.Points))/cpu.Seconds())
}

// cachedJob submits one point as a single-run job, which must be born
// done from the cache, and fetches its result.
func (ph *servicePhase) cachedJob(ctx context.Context, t *tally, rec *recorder, svc *service, gp gridPoint, op string) {
	t.attempt()
	t0 := time.Now()
	s := rec.begin(0, op, "client.submit")
	st, err := svc.client.Submit(ctx, mapsim.JobRequest{Type: mapsim.JobRun, Config: gp.job})
	rec.end(s)
	if err != nil {
		t.fail(fmt.Errorf("%s: submit: %w", op, err))
		return
	}
	if !st.CacheHit || st.State != mapsim.JobDone || st.Key != string(gp.key) {
		t.fail(fmt.Errorf("%s: job %s is %s (cache hit %v, key %s), want a cached %s", op, st.ID, st.State, st.CacheHit, st.Key, gp.key))
		return
	}
	s = rec.begin(0, op, "client.result")
	jr, err := svc.client.Result(ctx, st.ID)
	rec.end(s)
	if err != nil {
		t.fail(fmt.Errorf("%s: result: %w", op, err))
		return
	}
	ph.jobMS = append(ph.jobMS, float64(time.Since(t0))/1e6)
	data, err := json.Marshal(jr.Run)
	if err != nil || !bytes.Equal(data, gp.cold) {
		t.fail(fmt.Errorf("%s: result differs from the cold sweep's", op))
	}
	if rec != nil {
		// The same request's layers, timed directly under its op.
		s = rec.begin(0, op, "results.key")
		pol, part := sweep.CacheNames(gp.point)
		_, err := results.PointKeyFor(gp.point.Config, pol, part)
		rec.end(s)
		if err != nil {
			t.fail(err)
		}
		s = rec.begin(0, op, "store.get_mem")
		_, ok := svc.st.Get(ctx, gp.key)
		rec.end(s)
		if !ok {
			t.fail(fmt.Errorf("%s: store lost key %s", op, gp.key))
		}
	}
}

// probeKeys times content addressing over every grid point.
func (ph *servicePhase) probeKeys(t *tally, rec *recorder, p plan) {
	for rep := 0; rep < p.probeRepeats; rep++ {
		for r, g := range ph.rounds {
			for i, gp := range g.points {
				op := fmt.Sprintf("probe-key-%d-%d-%d", rep, r, i)
				t.attempt()
				s := rec.begin(0, op, "results.key")
				pol, part := sweep.CacheNames(gp.point)
				key, err := results.PointKeyFor(gp.point.Config, pol, part)
				rec.end(s)
				if err != nil || key != gp.key {
					t.fail(fmt.Errorf("%s: key %s, want %s (%v)", op, key, gp.key, err))
				}
			}
		}
	}
}

// probeDiskGets times Gets that only the disk tier can answer: a
// one-entry memory tier over the stopped service's store directory.
func (ph *servicePhase) probeDiskGets(ctx context.Context, t *tally, rec *recorder, dir string) error {
	st, err := store.Open(store.Options{Memory: results.New(1), Dir: filepath.Join(dir, "store")})
	if err != nil {
		return err
	}
	defer st.Close()
	for r, g := range ph.rounds {
		for i, gp := range g.points {
			t.attempt()
			s := rec.begin(0, fmt.Sprintf("probe-disk-%d-%d", r, i), "store.get_disk")
			_, ok := st.Get(ctx, gp.key)
			rec.end(s)
			if !ok {
				t.fail(fmt.Errorf("disk tier lost key %s", gp.key))
			}
		}
	}
	return nil
}

// probeWrites times durable store puts and journal appends under each
// fsync policy, in scratch directories of their own.
func (ph *servicePhase) probeWrites(t *tally, rec *recorder, dir string) error {
	st, err := store.Open(store.Options{Memory: results.New(memoryEntries), Dir: filepath.Join(dir, "store")})
	if err != nil {
		return err
	}
	// Put only queues the write; Close returns once the writer has
	// encoded, written and renamed every queued entry, so the batch
	// span covers the durable work of every put.
	// The points of the first rounds, one whole grid when there are
	// enough rounds.
	var pts []gridPoint
	for _, g := range ph.rounds[:min(len(ph.rounds), probeWriteRounds)] {
		pts = append(pts, g.points...)
	}
	vals := make([]*sim.Result, len(pts))
	for i, gp := range pts {
		vals[i] = new(sim.Result)
		if err := json.Unmarshal(gp.cold, vals[i]); err != nil {
			st.Close()
			return err
		}
	}
	s := rec.begin(0, "probe-put", "store.put_batch")
	for i, gp := range pts {
		st.Put(gp.key, vals[i])
	}
	st.Close()
	rec.end(s)
	t.attempt()
	if n := st.Stats().DiskPuts; n != uint64(len(pts)) {
		t.fail(fmt.Errorf("store probe: %d of %d puts reached disk", n, len(pts)))
	}
	ph.putUS = float64(rec.spans[s-1].dur()) / 1e3 / float64(len(pts))
	for _, mode := range []journal.Sync{journal.SyncAlways, journal.SyncInterval} {
		jd, err := journal.Open(journal.Options{Dir: filepath.Join(dir, "journal-"+mode.String()), Sync: mode})
		if err != nil {
			return err
		}
		wr, err := jd.Create(journal.Admit{ID: "s-probe", Created: time.Now().UTC(), Total: len(pts), GridHash: "probe", Spec: json.RawMessage(`{}`)})
		if err != nil {
			return err
		}
		for i, gp := range pts {
			t.attempt()
			s := rec.begin(0, "probe-append-"+strconv.Itoa(i), "journal.append_"+mode.String())
			err := wr.Point(journal.Point{Index: i, Key: string(gp.key), Worker: "local"})
			rec.end(s)
			if err != nil {
				t.fail(err)
			}
		}
		if err := wr.Finish(journal.Status{State: "done"}); err != nil {
			t.fail(err)
		}
	}
	return nil
}

// checkSamples re-simulates one point of each round locally; each
// must equal the service's cold result apart from host timing.
func (ph *servicePhase) checkSamples(t *tally, seed int64) {
	for r, g := range ph.rounds {
		idx := int((uint64(seed)*7919 + uint64(r*31)) % uint64(len(g.points)))
		gp := g.points[idx]
		t.attempt()
		cfg, err := sweep.Instantiate(gp.point)
		if err != nil {
			t.fail(err)
			continue
		}
		res, err := sim.Run(cfg)
		if err != nil {
			t.fail(err)
			continue
		}
		var served sim.Result
		if err := json.Unmarshal(gp.cold, &served); err != nil {
			t.fail(err)
			continue
		}
		if digestOf(res) != digestOf(&served) {
			t.fail(fmt.Errorf("round %d point %d: service result differs from a local sim.Run", r, idx))
		}
	}
}
