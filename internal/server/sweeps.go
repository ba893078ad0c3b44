package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/maps-sim/mapsim/internal/fleet"
	"github.com/maps-sim/mapsim/internal/jobs"
	"github.com/maps-sim/mapsim/internal/journal"
	"github.com/maps-sim/mapsim/internal/results"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/sweep"
	wspec "github.com/maps-sim/mapsim/internal/workload/spec"
)

// maxSweepPoints caps one sweep's grid. A spec that expands past it is
// rejected with 400 rather than admitted and starved — split the sweep
// or raise the cap in code.
const maxSweepPoints = 4096

// SweepIntAxis is the wire form of sweep.IntAxis: byte-size points
// ("64KB" strings or numbers) or a min/max geometric range.
type SweepIntAxis struct {
	// Points lists explicit values in sweep order.
	Points []ByteSize `json:"points,omitempty"`
	// Min and Max bound a geometric range; Factor is its step
	// (default 2).
	Min    ByteSize `json:"min,omitempty"`
	Max    ByteSize `json:"max,omitempty"`
	Factor int      `json:"factor,omitempty"`
}

// toSweep converts to the sweep package's axis type.
func (a SweepIntAxis) toSweep() sweep.IntAxis {
	out := sweep.IntAxis{
		Min: int(a.Min), Max: int(a.Max), Factor: a.Factor,
	}
	for _, p := range a.Points {
		out.Points = append(out.Points, int(p))
	}
	return out
}

// SweepAxes is the wire form of sweep.Axes.
type SweepAxes struct {
	// Benchmarks, Secure, Contents, Policies, Partitions, and
	// PartialWrites sweep the corresponding sim.Config dimension;
	// LLC and Meta sweep capacities in bytes. Empty axes inherit the
	// base config.
	Benchmarks    []string     `json:"benchmarks,omitempty"`
	Secure        []bool       `json:"secure,omitempty"`
	LLC           SweepIntAxis `json:"llc,omitempty"`
	Meta          SweepIntAxis `json:"meta,omitempty"`
	Contents      []string     `json:"contents,omitempty"`
	Policies      []string     `json:"policies,omitempty"`
	Partitions    []string     `json:"partitions,omitempty"`
	PartialWrites []bool       `json:"partial_writes,omitempty"`
	// WorkloadSpecs extends the workload axis with declarative
	// multi-client specs, swept alongside (or instead of) Benchmarks.
	WorkloadSpecs []*wspec.Spec `json:"workload_specs,omitempty"`
}

// SweepRequest is the body of POST /v1/sweeps.
type SweepRequest struct {
	// Base is the configuration shared by every point (its Secure
	// default and Meta spec follow ConfigSpec rules); Axes declares
	// what varies.
	Base ConfigSpec `json:"base"`
	Axes SweepAxes  `json:"axes"`
	// Parallelism bounds the sweep's concurrent points (default: the
	// pool's worker count).
	Parallelism int `json:"parallelism,omitempty"`
	// TimeoutSec caps each point's runtime; zero means no deadline.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// NoCache skips result-cache lookups; computed points are still
	// stored.
	NoCache bool `json:"no_cache,omitempty"`
}

// toSpec translates the wire request into a sweep spec. A base that
// names a non-default policy or partition is refused, as Spec.Expand
// refuses one that carries an instance: a sweep varies them by name
// on its axes, and the base's config has no field to hold them.
func (r SweepRequest) toSpec() (sweep.Spec, error) {
	base, err := r.Base.Point()
	if err != nil {
		return sweep.Spec{}, err
	}
	if base.Policy != "" || base.Partition != "" {
		return sweep.Spec{}, errors.New("sweep: name policies and partitions on the axes, not in base.meta")
	}
	return sweep.Spec{
		Base:    base.Config,
		NoCache: r.NoCache,
		Axes: sweep.Axes{
			Benchmarks:    r.Axes.Benchmarks,
			Secure:        r.Axes.Secure,
			LLC:           r.Axes.LLC.toSweep(),
			Meta:          r.Axes.Meta.toSweep(),
			Contents:      r.Axes.Contents,
			Policies:      r.Axes.Policies,
			Partitions:    r.Axes.Partitions,
			PartialWrites: r.Axes.PartialWrites,
			WorkloadSpecs: r.Axes.WorkloadSpecs,
		},
	}, nil
}

// SweepStatus is the wire form of a sweep's progress, returned by
// submit and status endpoints and streamed by ?watch=1.
type SweepStatus struct {
	ID string `json:"id"`
	// State is queued/running/done/failed/canceled (sweeps skip
	// queued: they start coordinating immediately and wait for pool
	// slots per point; one the store answers whole is done at submit).
	State jobs.State `json:"state"`
	// Total, Done, and Deduped count grid points: planned, completed,
	// and served from the results cache without simulating.
	Total   int `json:"total"`
	Done    int `json:"done"`
	Deduped int `json:"deduped"`
	// Error is the first point failure (failed state).
	Error    string    `json:"error,omitempty"`
	Created  time.Time `json:"created"`
	Finished time.Time `json:"finished,omitempty"`
	// Worker names the fleet worker that executed the most recently
	// completed point (empty for cached points), so each ?watch=1
	// stream line attributes the completion it reports.
	Worker string `json:"worker,omitempty"`
	// Workers counts completed points per fleet worker across the
	// sweep, so operators can see skew at a glance.
	Workers map[string]int `json:"workers,omitempty"`
}

// sweepJob is the server-side record of one sweep run.
type sweepJob struct {
	// id is the sweep's stable identifier, immutable after creation.
	id string
	// keys holds every grid point's store key in grid order (pointKeys),
	// immutable after creation.
	keys []results.Key
	// wal is the sweep's write-ahead journal; nil when journaling is
	// off or its admission failed (the sweep then runs fine but will
	// not survive a restart).
	wal *journal.Writer

	mu     sync.Mutex
	status SweepStatus
	result *sweep.Result
	cancel context.CancelFunc
	done   chan struct{} // closed on reaching a terminal state
}

// snapshot copies the current status under the lock, deep-copying the
// per-worker map so readers never alias the live counters.
func (j *sweepJob) snapshot() SweepStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.status
	if j.status.Workers != nil {
		st.Workers = make(map[string]int, len(j.status.Workers))
		for k, v := range j.status.Workers {
			st.Workers[k] = v
		}
	}
	return st
}

// finishState reads the sweep's state and finish time under its lock,
// without snapshot's copy of the per-worker map.
func (j *sweepJob) finishState() (jobs.State, time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status.State, j.status.Finished
}

// registerSweepRoutes mounts the sweep endpoints on the API mux.
func (s *Server) registerSweepRoutes() {
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepStatus)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/result", s.handleSweepResult)
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleSweepCancel)
}

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	if err := faultSubmit.Hit(); err != nil {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterShed))
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if s.draining.Load() || s.pool.Draining() {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterDraining))
		writeError(w, http.StatusServiceUnavailable, "%v", jobs.ErrDraining)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req SweepRequest
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	spec, err := req.toSpec()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad sweep base: %v", err)
		return
	}
	// Expand up front: a bad spec answers 400 before anything runs,
	// and Total is known from the first status response on.
	points, err := spec.Expand()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad sweep: %v", err)
		return
	}
	if len(points) > maxSweepPoints {
		writeError(w, http.StatusBadRequest,
			"sweep expands to %d points, above the %d-point cap; split it", len(points), maxSweepPoints)
		return
	}

	// Submission doubles as the eviction trigger: finished sweeps past
	// their TTL, or past the registry cap, make room before this one
	// registers.
	s.evictSweeps(time.Now())

	ctx, cancel := context.WithCancel(context.Background())
	j := &sweepJob{cancel: cancel, done: make(chan struct{})}
	j.status = SweepStatus{
		State:   jobs.StateRunning,
		Total:   len(points),
		Created: time.Now(),
	}
	j.keys = pointKeys(points)
	var hits []*sim.Result
	stored := false
	if !spec.NoCache {
		hits, stored = s.lookupStored(ctx, j.keys)
	}
	s.mu.Lock()
	s.sweepSeq++
	id := fmt.Sprintf("s-%08d", s.sweepSeq)
	s.mu.Unlock()
	j.id = id
	j.status.ID = id
	s.sweepsStarted.Add(1)
	s.sweepPointsPlanned.Add(uint64(len(points)))
	if stored {
		s.finishStored(j, points, hits)
		cancel()
	} else {
		j.wal = s.journalAdmit(id, req, points, j.keys, j.status.Created)
	}
	s.mu.Lock()
	s.registerLocked(j)
	s.mu.Unlock()
	if !stored {
		s.startSweep(ctx, cancel, j, spec, req.Parallelism,
			time.Duration(req.TimeoutSec*float64(time.Second)), nil, hits)
	}

	writeJSON(w, http.StatusAccepted, j.snapshot())
}

// lookupStored looks the sweep's points up in the store in grid order
// and stops at the first point it cannot serve. hits holds the answers,
// ending in nil at a miss; an unkeyable point ends it without a lookup.
// all reports that the store holds every point.
func (s *Server) lookupStored(ctx context.Context, keys []results.Key) (hits []*sim.Result, all bool) {
	hits = make([]*sim.Result, 0, len(keys))
	for _, key := range keys {
		if key == "" {
			return hits, false
		}
		v, _ := s.store.Get(ctx, key)
		res, _ := v.(*sim.Result)
		hits = append(hits, res)
		if res == nil {
			return hits, false
		}
	}
	return hits, true
}

// finishStored completes a sweep whose every point the store holds
// without running it: no journal, no coordinator, no pool slot. It is
// born done, with the result fleet.Coordinator.Run would build for it
// and the same counters; registerLocked stamps its finish time. A
// crash loses nothing, since recovery never reinstalls a finished
// sweep; the store flush keeps the promise that a done sweep's points
// are on disk.
func (s *Server) finishStored(j *sweepJob, points []sweep.Point, hits []*sim.Result) {
	n := len(points)
	res := &sweep.Result{
		Points:  make([]sweep.PointResult, n),
		Total:   n,
		Done:    n,
		Deduped: n,
	}
	for i, p := range points {
		res.Points[i] = sweep.PointResult{Point: p, Result: hits[i], Cached: true}
	}
	res.Wall = time.Since(j.status.Created)
	res.Aggregate()
	s.flushStore(j.id)
	j.result = res
	j.status.State = jobs.StateDone
	j.status.Done = n
	j.status.Deduped = n
	close(j.done)
	s.sweepPointsDeduped.Add(uint64(n))
	s.sweepPointsDone.Add(uint64(n))
}

// startSweep builds the sweep's fleet coordinator and runs it in its
// own goroutine, NOT as a pool job: a coordinator occupying a worker
// slot while waiting on its own point jobs could deadlock a full pool
// against itself. This daemon's pool is the first worker (bounded by
// parallelism), registered remotes are the rest; with no remotes the
// sweep runs exactly as fleet.RunLocal would run it, plus the store's
// dedupe. completed pre-marks journal-recovered points (nil for fresh
// sweeps); hits carries the store answers the submit handler already
// has (lookupStored), so no point is looked up twice.
func (s *Server) startSweep(ctx context.Context, cancel context.CancelFunc, j *sweepJob,
	spec sweep.Spec, parallelism int, timeout time.Duration, completed map[int]bool, hits []*sim.Result) {
	if parallelism <= 0 {
		parallelism = s.pool.Stats().Workers
	}
	local := &fleet.PoolRunner{Pool: s.pool}
	workers := make([]fleet.Worker, 0, len(s.fleetWorkers)+1)
	workers = append(workers, fleet.Worker{Runner: local, MaxInflight: parallelism})
	workers = append(workers, s.fleetWorkers...)
	coord := &fleet.Coordinator{
		Workers:        workers,
		Cache:          s.store,
		Completed:      completed,
		Keys:           j.keys,
		Hits:           hits,
		Timeout:        timeout,
		StragglerAfter: s.stragglerAfter,
		Metrics:        s.fleetMetrics,
		Logger:         s.log,
		OnPoint: func(pr sweep.PointResult) {
			j.mu.Lock()
			j.status.Done++
			if pr.Cached {
				j.status.Deduped++
				s.sweepPointsDeduped.Add(1)
			}
			j.status.Worker = pr.Worker
			if pr.Worker != "" {
				if j.status.Workers == nil {
					j.status.Workers = make(map[string]int)
				}
				j.status.Workers[pr.Worker]++
			}
			j.mu.Unlock()
			s.sweepPointsDone.Add(1)
			if !pr.Cached && pr.Worker == local.Name() {
				// A point this daemon simulated counts toward its
				// throughput and phase metrics as a run job does, so a
				// suite, which runs as a sweep, still shows there.
				s.account(pr.Result.Instructions, pr.Result.Timing.Total)
				s.recordTiming(pr.Result.Timing)
			}
			// The store answers a cache-enabled sweep's finished points
			// on resume, so only NoCache sweeps, which skip that lookup,
			// journal them.
			if spec.NoCache {
				s.journalPoint(j, pr)
			}
		},
	}
	go func() {
		defer cancel()
		res, err := coord.Run(ctx, spec)
		// A terminal status (and journal record) tells recovery the
		// points live in the store, so they must be on disk first:
		// Put only queues the disk write.
		s.flushStore(j.id)
		s.mu.Lock()
		j.mu.Lock()
		s.running--
		s.finishLocked(j)
		switch {
		case err == nil:
			j.status.State = jobs.StateDone
			j.result = res
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			j.status.State = jobs.StateCanceled
			j.status.Error = err.Error()
		default:
			j.status.State = jobs.StateFailed
			j.status.Error = err.Error()
		}
		state, msg := j.status.State, j.status.Error
		j.mu.Unlock()
		s.mu.Unlock()
		if j.wal != nil {
			if state == jobs.StateCanceled && s.draining.Load() {
				// A draining shutdown is not a verdict on the sweep:
				// close the journal without a terminal record so the
				// next start resumes it exactly like a crash.
				j.wal.Close()
			} else {
				j.wal.Finish(journal.Status{State: string(state), Error: msg})
			}
		}
		close(j.done)
	}()
}

// storeFlushTimeout bounds the wait for a finished sweep's disk
// writes, so a wedged disk delays sweeps rather than hanging them.
const storeFlushTimeout = time.Minute

// flushStore waits until every queued store write has reached disk.
func (s *Server) flushStore(sweepID string) {
	ctx, cancel := context.WithTimeout(context.Background(), storeFlushTimeout)
	defer cancel()
	if err := s.store.Flush(ctx); err != nil {
		s.log.Warn("sweep finished before its results reached disk",
			"sweep", sweepID, "err", err)
	}
}

// journalAdmit opens the sweep's write-ahead log and records its
// admission. A nil return means journaling is off or degraded — the
// sweep runs fine but will not survive a restart (logged at Warn).
func (s *Server) journalAdmit(id string, req SweepRequest, points []sweep.Point, keys []results.Key, created time.Time) *journal.Writer {
	if s.journal == nil {
		return nil
	}
	spec, err := json.Marshal(req)
	if err == nil {
		var w *journal.Writer
		if w, err = s.journal.Create(journal.Admit{
			ID:       id,
			Created:  created.UTC(),
			Total:    len(points),
			GridHash: sweepGridHash(points, keys),
			Spec:     spec,
		}); err == nil {
			return w
		}
	}
	s.log.Warn("sweep journal admission failed; sweep will not survive a restart",
		"sweep", id, "err", err)
	return nil
}

// journalPoint appends one completed point of a NoCache sweep to its
// journal, so a resumed sweep forces the store lookup for it. Append
// failures degrade to an unjournaled point — a crash would re-simulate
// it — never a sweep failure.
func (s *Server) journalPoint(j *sweepJob, pr sweep.PointResult) {
	if j.wal == nil {
		return
	}
	if err := j.wal.Point(journal.Point{
		Index:  pr.Point.Index,
		Key:    string(j.keys[pr.Point.Index]),
		Worker: pr.Worker,
		Cached: pr.Cached,
	}); err != nil {
		s.log.Debug("sweep journal append dropped",
			"sweep", j.id, "point", pr.Point.Index, "err", err)
	}
}

// finishedSweep is one entry of the finish index.
type finishedSweep struct {
	id       string
	finished time.Time
}

// registerLocked adds j to the registry, with s.mu held. A sweep born
// done is stamped finished as it registers.
func (s *Server) registerLocked(j *sweepJob) {
	s.sweeps[j.id] = j
	if j.status.State.Terminal() {
		s.finishLocked(j)
	} else {
		s.running++
	}
}

// finishLocked stamps j's finish time and appends j to the finish
// index, with s.mu and j's lock held (or j not yet shared). Stamping
// under s.mu keeps the index in finish order.
func (s *Server) finishLocked(j *sweepJob) {
	j.status.Finished = time.Now()
	s.finished = append(s.finished, finishedSweep{j.id, j.status.Finished})
}

// evictSweeps drops finished sweeps from the registry: first every
// one finished longer than the TTL ago, then the oldest finished ones
// past the registry cap. Running sweeps are never evicted. A sweep's
// journal goes with its registry entry — by then its points live in
// the result store, so nothing irreplaceable is lost. Called
// opportunistically on submissions and /metrics scrapes, it pops only
// what it evicts off the finish index, which registerLocked and
// finishLocked keep in step with the registry.
func (s *Server) evictSweeps(now time.Time) {
	if s.sweepTTL <= 0 && s.maxSweeps <= 0 {
		return
	}
	expired := func(finished time.Time) bool {
		return s.sweepTTL > 0 && now.Sub(finished) > s.sweepTTL
	}
	s.mu.Lock()
	over := 0
	if s.maxSweeps > 0 {
		over = len(s.sweeps) - s.maxSweeps
	}
	var evicted []string
	evicted, s.finished = evictFront(s.finished, over, expired)
	for _, id := range evicted {
		delete(s.sweeps, id)
	}
	s.mu.Unlock()
	for _, id := range evicted {
		s.sweepsEvicted.Add(1)
		if s.journal != nil {
			s.journal.Remove(id)
		}
		s.log.Debug("sweep evicted", "sweep", id)
	}
}

// evictFront splits off the front of the finish index idx what a
// registry over its cap by over evicts, oldest-finished first: every
// expired sweep, and the oldest others until over are gone. Expiry is
// monotone in finish time, so that is a prefix of idx.
func evictFront(idx []finishedSweep, over int, expired func(time.Time) bool) (ids []string, rest []finishedSweep) {
	n := 0
	for n < len(idx) && (n < over || expired(idx[n].finished)) {
		n++
	}
	ids = make([]string, n)
	for i := range ids {
		ids[i] = idx[i].id
	}
	return ids, idx[n:]
}

// awaitSweeps blocks (bounded by ctx) until every sweep coordinator
// has recorded its terminal state and settled its journal — the
// shutdown step that makes a graceful restart resume cleanly.
func (s *Server) awaitSweeps(ctx context.Context) {
	s.mu.Lock()
	active := make([]*sweepJob, 0, len(s.sweeps))
	for _, j := range s.sweeps {
		active = append(active, j)
	}
	s.mu.Unlock()
	for _, j := range active {
		select {
		case <-j.done:
		case <-ctx.Done():
			return
		}
	}
}

// sweepByID looks up a sweep record.
func (s *Server) sweepByID(id string) (*sweepJob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.sweeps[id]
	return j, ok
}

func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.sweepByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such sweep %q", r.PathValue("id"))
		return
	}
	if r.URL.Query().Get("watch") == "" {
		writeJSON(w, http.StatusOK, j.snapshot())
		return
	}
	s.streamSweep(w, r, j)
}

// streamSweep writes newline-delimited SweepStatus JSON: one line per
// per-point completion count change, plus the terminal line, then
// closes. Clients see completion counts live instead of polling.
func (s *Server) streamSweep(w http.ResponseWriter, r *http.Request, j *sweepJob) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusOK, j.snapshot())
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	ticker := time.NewTicker(25 * time.Millisecond)
	defer ticker.Stop()
	lastDone := -1
	for {
		st := j.snapshot()
		if st.Done != lastDone || st.State.Terminal() {
			lastDone = st.Done
			if enc.Encode(st) != nil {
				return // client went away
			}
			flusher.Flush()
		}
		if st.State.Terminal() {
			return
		}
		select {
		case <-j.done:
			// Loop once more to emit the terminal line.
		case <-ticker.C:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleSweepResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.sweepByID(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such sweep %q", id)
		return
	}
	j.mu.Lock()
	st, res := j.status, j.result
	j.mu.Unlock()
	switch st.State {
	case jobs.StateDone:
		writeReply(w, res, func(buf []byte) ([]byte, error) {
			return appendSweepResult(buf, res, func(i int) []byte {
				if r := res.Points[i].Result; r != nil {
					return s.store.Encoded(j.keys[i], r)
				}
				return nil
			})
		})
	case jobs.StateRunning:
		writeError(w, http.StatusConflict,
			"sweep %s is running (%d/%d points); poll GET /v1/sweeps/%s until done", id, st.Done, st.Total, id)
	default:
		writeError(w, http.StatusConflict, "sweep %s is %s: %s", id, st.State, st.Error)
	}
}

func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.sweepByID(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such sweep %q", id)
		return
	}
	j.cancel()
	<-j.done // the coordinator records the terminal state
	writeJSON(w, http.StatusOK, j.snapshot())
}

// cancelSweeps aborts every non-terminal sweep; Shutdown calls it so
// coordinators never outlive the pool they submit to.
func (s *Server) cancelSweeps() {
	s.mu.Lock()
	active := make([]*sweepJob, 0, len(s.sweeps))
	for _, j := range s.sweeps {
		active = append(active, j)
	}
	s.mu.Unlock()
	for _, j := range active {
		j.cancel()
	}
}

// SweepStats reports cumulative sweep counters (tests and /metrics).
type SweepStats struct {
	// Started counts sweeps admitted; PointsPlanned, PointsDone, and
	// PointsDeduped count grid points across all of them. A deduped
	// point is also a done point.
	Started       uint64 `json:"started"`
	PointsPlanned uint64 `json:"points_planned"`
	PointsDone    uint64 `json:"points_done"`
	PointsDeduped uint64 `json:"points_deduped"`
}

// SweepStatsSnapshot returns the cumulative sweep counters.
func (s *Server) SweepStatsSnapshot() SweepStats {
	return SweepStats{
		Started:       s.sweepsStarted.Load(),
		PointsPlanned: s.sweepPointsPlanned.Load(),
		PointsDone:    s.sweepPointsDone.Load(),
		PointsDeduped: s.sweepPointsDeduped.Load(),
	}
}
