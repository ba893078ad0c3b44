// Package server is mapsd's HTTP layer: a JSON API over the job pool
// (internal/jobs) and the content-addressed result cache
// (internal/results).
//
//	POST   /v1/jobs              submit a run or suite job
//	GET    /v1/jobs/{id}          poll status
//	GET    /v1/jobs/{id}/result   fetch the finished result
//	GET    /v1/jobs/{id}/progress instructions retired mid-run
//	DELETE /v1/jobs/{id}          cancel
//	POST   /v1/sweeps             submit a parameter sweep (config grid)
//	GET    /v1/sweeps/{id}        sweep progress (?watch=1 streams NDJSON)
//	GET    /v1/sweeps/{id}/result fetch the finished sweep.Result
//	DELETE /v1/sweeps/{id}        cancel a sweep
//	GET    /v1/benchmarks         list workloads
//	GET    /v1/experiments        list experiment harnesses
//	GET    /metrics               Prometheus-style counters, no deps
//	GET    /healthz               liveness
//	GET    /readyz                readiness (503 while draining/saturated)
//	GET    /debug/pprof/          profiling (only with Config.EnablePprof)
//
// Submission consults the result cache first: a request whose
// canonical config hash is already cached gets a job that is born
// done, carrying the cached result — the simulator never runs.
//
// Overload and shutdown degrade gracefully rather than falling over
// (docs/ROBUSTNESS.md): a full queue sheds the submission with 429 +
// Retry-After, a draining pool answers 503, request bodies are capped,
// and a panicking handler or job is isolated and counted, never fatal.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/maps-sim/mapsim/internal/experiments"
	"github.com/maps-sim/mapsim/internal/faults"
	"github.com/maps-sim/mapsim/internal/fleet"
	"github.com/maps-sim/mapsim/internal/jobs"
	"github.com/maps-sim/mapsim/internal/journal"
	"github.com/maps-sim/mapsim/internal/obs"
	"github.com/maps-sim/mapsim/internal/results"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/store"
	"github.com/maps-sim/mapsim/internal/sweep"
	"github.com/maps-sim/mapsim/internal/workload"
)

// faultSubmit is the injection point armed (as "server.submit") to
// make the submit handler fail or stall before touching the pool —
// the place a flaky ingress or auth dependency would bite.
var faultSubmit = faults.P("server.submit")

// retryAfterShed is the Retry-After hint (seconds) on a 429 shed
// response: roughly how long one queued simulation takes to start.
const retryAfterShed = 1

// retryAfterDraining is the Retry-After hint (seconds) on a 503 from
// a draining instance — long enough for an LB to fail the next poll
// over to a healthy one.
const retryAfterDraining = 5

// Config sizes the service.
type Config struct {
	// Workers is the simulation worker count (default NumCPU).
	Workers int
	// QueueDepth bounds the backlog; submissions beyond it are shed
	// with 429 + Retry-After (default 64).
	QueueDepth int
	// CacheEntries bounds the result cache (default 256). Ignored when
	// Store is set — the store's own memory tier rules then.
	CacheEntries int
	// Store, when set, is the tiered persistent result store the
	// daemon answers from and fills (memory LRU over a disk tier over
	// HTTP peers; see internal/store). Nil falls back to a memory-only
	// store of CacheEntries capacity. The server owns the store's
	// lifecycle either way: Shutdown flushes and closes it.
	Store *store.Store
	// Logger receives request logs, job lifecycle events, and
	// simulation spans; nil means silent.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// API mux. Off by default: the daemon may face untrusted clients.
	EnablePprof bool
	// MaxBodyBytes caps request bodies via http.MaxBytesReader
	// (default 1 MiB — generous for a job spec, stingy for a flood).
	MaxBodyBytes int64
	// JobRetries is the per-job retry budget for transient failures
	// (default 2; negative disables retries).
	JobRetries int
	// JobRetryBase is the first retry backoff, doubling per attempt
	// (default 50ms).
	JobRetryBase time.Duration
	// Fleet lists remote sweep workers (typically mapsim.NewWorkerRunner
	// adapters over other daemons, registered via cmd/mapsd -fleet).
	// Sweeps always dispatch through a fleet coordinator; this daemon's
	// own pool is implicitly the first worker, so an empty Fleet is the
	// single-node configuration.
	Fleet []fleet.Worker
	// FleetStragglerAfter re-issues a sweep point still in flight on
	// one worker after this long to another (default 30s; negative
	// disables straggler re-issue).
	FleetStragglerAfter time.Duration
	// Journal, when set, write-ahead-logs every sweep with a point to
	// simulate (admission, no_cache sweeps' per-point completions,
	// terminal status — see internal/journal); a sweep the store
	// answers whole is done at submit and writes none. New replays it,
	// resuming unfinished sweeps under their original IDs with
	// already-completed points served from the result store, so
	// clients reattach to GET /v1/sweeps/{id} across restarts. Nil
	// disables journaling. Wired from cmd/mapsd -journal-dir.
	Journal *journal.Dir
	// SweepTTL evicts finished sweeps from the registry — and removes
	// their journals — this long after they finish (default 1h;
	// negative disables TTL eviction). Their per-point results remain
	// in the store.
	SweepTTL time.Duration
	// MaxSweeps caps the sweep registry; past it the oldest finished
	// sweeps are evicted first (default 512; negative removes the
	// cap). Running sweeps are never evicted by either bound.
	MaxSweeps int
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.JobRetries == 0 {
		c.JobRetries = 2
	}
	if c.JobRetryBase <= 0 {
		c.JobRetryBase = 50 * time.Millisecond
	}
	if c.FleetStragglerAfter == 0 {
		c.FleetStragglerAfter = 30 * time.Second
	} else if c.FleetStragglerAfter < 0 {
		c.FleetStragglerAfter = 0 // disabled
	}
	if c.SweepTTL == 0 {
		c.SweepTTL = time.Hour
	} else if c.SweepTTL < 0 {
		c.SweepTTL = 0 // disabled
	}
	if c.MaxSweeps == 0 {
		c.MaxSweeps = 512
	} else if c.MaxSweeps < 0 {
		c.MaxSweeps = 0 // uncapped
	}
}

// jobMeta is the server-side annotation the pool doesn't know about.
type jobMeta struct {
	typ      string
	key      results.Key
	cacheHit bool
	// progress is ticked by the running simulation; nil for jobs born
	// done from the cache.
	progress *obs.Progress
}

// Server wires the HTTP API to the pool and the tiered result store.
type Server struct {
	pool *jobs.Pool
	// store is the tiered result store; cache aliases its memory tier
	// (the old mapsd_cache_* counters keep reading from there).
	store   *store.Store
	cache   *results.Cache
	mux     *http.ServeMux
	handler http.Handler
	log     *slog.Logger
	http    httpStats

	mu   sync.Mutex
	meta map[string]jobMeta
	// inflight maps a canonical config hash to the ID of the queued or
	// running job computing it, so identical submissions coalesce onto
	// one simulation (singleflight). Entries are cleared when the job
	// function returns or the job is cancelled while queued.
	inflight map[results.Key]string
	deduped  atomic.Uint64

	// Sweep registry (see sweeps.go): coordinators run in their own
	// goroutines and shard points into the pool. journal, when
	// non-nil, write-ahead-logs every sweep that has a point to
	// simulate; sweepTTL and maxSweeps
	// bound the registry (evictSweeps).
	sweeps   map[string]*sweepJob
	sweepSeq uint64
	// finished indexes the registry's terminal sweeps in finish order
	// (finishLocked) and running counts the others, both under mu.
	finished  []finishedSweep
	running   int
	journal   *journal.Dir
	sweepTTL  time.Duration
	maxSweeps int

	// Fleet dispatch state: registered remote workers, the straggler
	// deadline, and the cumulative per-worker counters behind the
	// mapsd_fleet_* metric family.
	fleetWorkers   []fleet.Worker
	stragglerAfter time.Duration
	fleetMetrics   *fleet.Metrics

	// Cumulative sweep counters for the mapsd_sweep_* metric family.
	sweepsStarted      atomic.Uint64
	sweepPointsPlanned atomic.Uint64
	sweepPointsDone    atomic.Uint64
	sweepPointsDeduped atomic.Uint64
	sweepsEvicted      atomic.Uint64
	sweepsRecovered    atomic.Uint64

	// Robustness accounting and state.
	maxBody    int64
	shed       atomic.Uint64 // submissions refused with 429 (queue full)
	httpPanics atomic.Uint64 // handler panics recovered by the middleware
	draining   atomic.Bool   // readiness gate; set by MarkDraining/Shutdown

	// Throughput accounting across finished simulations.
	instrTotal atomic.Uint64
	busyNanos  atomic.Int64
	started    time.Time

	// Wall-clock per simulation phase across finished runs, for the
	// mapsd_sim_phase_seconds_total metric family.
	phaseMu   sync.Mutex
	phaseSecs map[string]float64
	phaseRuns uint64
}

// New builds a ready-to-serve Server.
func New(cfg Config) *Server {
	cfg.fill()
	log := cfg.Logger
	if log == nil {
		log = obs.Nop()
	}
	st := cfg.Store
	if st == nil {
		st = store.MemoryOnly(results.New(cfg.CacheEntries))
	}
	s := &Server{
		pool: jobs.New(cfg.Workers, cfg.QueueDepth,
			jobs.WithLogger(log),
			jobs.WithRetry(cfg.JobRetries, cfg.JobRetryBase),
			jobs.WithContextWrap(func(ctx context.Context) context.Context {
				// Runs pipeline only into cores the worker pool
				// leaves unclaimed.
				return sim.WithConcurrency(ctx, cfg.Workers)
			})),
		store:     st,
		cache:     st.Memory(),
		mux:       http.NewServeMux(),
		log:       log,
		meta:      make(map[string]jobMeta),
		inflight:  make(map[results.Key]string),
		sweeps:    make(map[string]*sweepJob),
		started:   time.Now(),
		phaseSecs: make(map[string]float64),
		maxBody:   cfg.MaxBodyBytes,
		journal:   cfg.Journal,
		sweepTTL:  cfg.SweepTTL,
		maxSweeps: cfg.MaxSweeps,

		fleetWorkers:   cfg.Fleet,
		stragglerAfter: cfg.FleetStragglerAfter,
		fleetMetrics:   &fleet.Metrics{},
	}
	// Sweep IDs count up from the wall clock in microseconds, so a
	// restarted daemon never reissues the ID of a sweep that finished
	// before it: recovery deletes finished sweeps' journals, and a
	// born-done sweep never writes one. Recovered IDs only move the
	// counter forward.
	s.sweepSeq = uint64(s.started.UnixMicro())
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/progress", s.handleProgress)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.registerSweepRoutes()
	s.mux.HandleFunc("GET /v1/store/{key}", s.handleStoreGet)
	s.mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.handler = s.logMiddleware(s.recoverMiddleware(s.mux))
	// Journal replay last, once the pool and store are serving: every
	// unfinished sweep resumes under its original ID, completed points
	// pre-marked so the store — not the simulator — supplies them.
	if s.journal != nil {
		s.recoverSweeps()
	}
	return s
}

// Handler returns the HTTP entrypoint (the API wrapped in the
// request-logging middleware).
func (s *Server) Handler() http.Handler { return s.handler }

// MarkDraining flips /readyz to 503 without stopping anything: call
// it when shutdown is imminent so load balancers stop routing new
// work here while in-flight requests finish.
func (s *Server) MarkDraining() { s.draining.Store(true) }

// Shutdown drains the pool — queued and running jobs complete unless
// ctx expires first, in which case they are cancelled — then flushes
// and closes the result store, so everything the last jobs computed
// reaches the disk tier before the process exits. Readiness goes
// false immediately.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	// Abort sweep coordinators first: they submit to the pool from
	// their own goroutines and must not race the drain. Then wait for
	// each to settle — a draining shutdown closes its journal without
	// a terminal record, so the next start resumes it like a crash.
	s.cancelSweeps()
	s.awaitSweeps(ctx)
	err := s.pool.Shutdown(ctx)
	// Close drains the write queue even when the pool drain timed
	// out: persisting what did finish is exactly what makes the next
	// start cheap.
	s.store.Close()
	return err
}

// handleReady is the readiness probe: 200 only when the instance can
// usefully accept a new job. Draining (shutdown imminent) or a
// saturated queue (the next submit would be shed anyway) answer 503,
// taking the instance out of load-balancer rotation while /healthz
// keeps reporting the process itself alive.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	ps := s.pool.Stats()
	switch {
	case s.draining.Load() || s.pool.Draining():
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterDraining))
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case ps.Queued >= ps.QueueCap:
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterShed))
		http.Error(w, "saturated", http.StatusServiceUnavailable)
	default:
		w.Write([]byte("ready\n"))
	}
}

// CacheStats exposes the memory-tier result-cache counters (tests
// and metrics).
func (s *Server) CacheStats() results.Stats { return s.cache.Stats() }

// StoreStats exposes the tiered result-store counters (tests and
// metrics).
func (s *Server) StoreStats() store.Stats { return s.store.Stats() }

// handleStoreGet serves the raw envelope for a content key from the
// local store tiers — the peer-fill protocol's supply side. Peers are
// never consulted recursively, so daemons pointing at each other
// cannot set off a fill storm; a key this daemon doesn't hold locally
// is simply 404, and the asking peer recomputes.
func (s *Server) handleStoreGet(w http.ResponseWriter, r *http.Request) {
	key := results.Key(r.PathValue("key"))
	if !store.ValidKey(key) {
		writeError(w, http.StatusBadRequest, "malformed store key %q (want 64 hex chars)", key)
		return
	}
	raw, ok := s.store.Envelope(key)
	if !ok {
		writeError(w, http.StatusNotFound, "key %s not in local store", key)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(raw)
}

// PoolStats exposes the job-pool counters.
func (s *Server) PoolStats() jobs.Stats { return s.pool.Stats() }

// Deduped returns how many submissions were coalesced onto an
// identical in-flight job (singleflight) — the counter that proves a
// retried submit did not double-run.
func (s *Server) Deduped() uint64 { return s.deduped.Load() }

// SweepsEvicted returns how many finished sweeps the registry has
// evicted (TTL or cap) — behind mapsd_sweeps_evicted_total.
func (s *Server) SweepsEvicted() uint64 { return s.sweepsEvicted.Load() }

// SweepsRecovered returns how many unfinished sweeps startup resumed
// from the journal.
func (s *Server) SweepsRecovered() uint64 { return s.sweepsRecovered.Load() }

// ShedCount returns how many submissions were refused with 429
// because the queue was saturated.
func (s *Server) ShedCount() uint64 { return s.shed.Load() }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if err := faultSubmit.Hit(); err != nil {
		// An injected submit failure is reported like any transient
		// dependency outage: unavailable, try again shortly.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterShed))
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req JobRequest
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
	if req.Type == "" {
		req.Type = TypeRun
	}
	point, err := req.Config.Point()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad config: %v", err)
		return
	}
	cfg := point.Config
	timeout := time.Duration(req.TimeoutSec * float64(time.Second))

	var key results.Key
	var fn jobs.Fn
	prog := new(obs.Progress)
	switch req.Type {
	case TypeRun:
		if len(req.Benchmarks) > 0 {
			writeError(w, http.StatusBadRequest, "run jobs take config.benchmark, not benchmarks")
			return
		}
		if cfg.WorkloadSpec == nil {
			// Spec-driven runs validate through PointKeyFor below (the
			// spec's name is not a registry entry by design).
			if _, err := workload.New(cfg.Benchmark); err != nil {
				writeError(w, http.StatusBadRequest, "bad config: %v", err)
				return
			}
		}
		key, err = sweep.PointKey(point)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad config: %v", err)
			return
		}
		fn = s.runFn(point, key, prog)
	case TypeSuite:
		if req.Config.Workload != nil {
			// A suite varies the benchmark; a base workload spec would
			// silently override every entry.
			writeError(w, http.StatusBadRequest, "suite jobs cannot set config.workload")
			return
		}
		if point.Policy != "" || point.Partition != "" {
			// Suites share one config across the fan-out; stateful
			// policy instances must not be shared, so suites always
			// run the defaults.
			writeError(w, http.StatusBadRequest, "suite jobs cannot set meta.policy or meta.partition")
			return
		}
		benchmarks := req.Benchmarks
		if len(benchmarks) == 0 {
			benchmarks = workload.Names()
		}
		for _, b := range benchmarks {
			if _, err := workload.New(b); err != nil {
				writeError(w, http.StatusBadRequest, "bad benchmark list: %v", err)
				return
			}
		}
		key, err = results.SuiteKeyFor(cfg, benchmarks)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad config: %v", err)
			return
		}
		fn = s.suiteFn(cfg, benchmarks, req.Parallelism, key, prog)
	default:
		writeError(w, http.StatusBadRequest, "unknown job type %q (want run or suite)", req.Type)
		return
	}

	if !req.NoCache {
		if cached, ok := s.store.Get(r.Context(), key); ok {
			id, err := s.pool.Complete(cached)
			if err != nil {
				w.Header().Set("Retry-After", strconv.Itoa(retryAfterDraining))
				writeError(w, http.StatusServiceUnavailable, "%v", err)
				return
			}
			s.noteJob(id, jobMeta{typ: req.Type, key: key, cacheHit: true})
			snap, _ := s.pool.Get(id)
			writeJSON(w, http.StatusOK, s.status(snap))
			return
		}
		// Singleflight: an identical job already queued or running
		// serves this submission too — hand back its ID instead of
		// simulating the same config twice.
		if id, ok := s.inflightJob(key); ok {
			if snap, err := s.pool.Get(id); err == nil && !snap.State.Terminal() {
				s.deduped.Add(1)
				st := s.status(snap)
				st.Deduped = true
				writeJSON(w, http.StatusOK, st)
				return
			}
		}
	}

	id, err := s.pool.Submit(fn, timeout)
	switch {
	case err == nil:
	case errors.Is(err, jobs.ErrQueueFull):
		// Load shedding: refuse early with back-pressure the client
		// can act on, instead of queueing work we cannot start.
		s.shed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterShed))
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, jobs.ErrShutdown): // includes ErrDraining
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterDraining))
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.noteJob(id, jobMeta{typ: req.Type, key: key, progress: prog})
	if !req.NoCache {
		s.setInflight(key, id)
	}
	snap, _ := s.pool.Get(id)
	writeJSON(w, http.StatusAccepted, s.status(snap))
}

// setInflight registers id as the job computing key.
func (s *Server) setInflight(key results.Key, id string) {
	s.mu.Lock()
	s.inflight[key] = id
	s.mu.Unlock()
}

// inflightJob reports the job currently computing key, if any.
func (s *Server) inflightJob(key results.Key) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.inflight[key]
	return id, ok
}

// clearInflight drops the key→id registration, but only if it still
// points at id: a later identical resubmission may have re-registered
// the key for a fresh job.
func (s *Server) clearInflight(key results.Key, id string) {
	s.mu.Lock()
	if s.inflight[key] == id {
		delete(s.inflight, key)
	}
	s.mu.Unlock()
}

// jobCtx gives the work function a run-scoped logger: job ID doubles
// as the run ID, and every span and lifecycle event below carries it.
func (s *Server) jobCtx(ctx context.Context, typ string, attrs ...any) context.Context {
	id := jobs.IDFromContext(ctx)
	l := s.log.With(append([]any{"job_id", id, "run_id", id, "type", typ}, attrs...)...)
	return obs.Into(ctx, l)
}

// runFn wraps one simulation as a pool job: instantiate the point's
// policy/partition fresh per attempt (sweep.Instantiate — retries
// must never see a warmed instance), run under ctx, account
// throughput and phase timings, populate the cache.
func (s *Server) runFn(p sweep.Point, key results.Key, prog *obs.Progress) jobs.Fn {
	p.Config.Progress = prog
	return func(ctx context.Context) (any, error) {
		defer s.clearInflight(key, jobs.IDFromContext(ctx))
		ctx = s.jobCtx(ctx, TypeRun, "benchmark", p.Benchmark)
		runCfg, err := sweep.Instantiate(p)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		res, err := sim.RunContext(ctx, runCfg)
		if err != nil {
			return nil, err
		}
		s.account(res.Instructions, time.Since(t0))
		s.recordTiming(res.Timing)
		s.store.Put(key, res)
		return res, nil
	}
}

func (s *Server) suiteFn(cfg sim.Config, benchmarks []string, parallelism int, key results.Key, prog *obs.Progress) jobs.Fn {
	cfg.Progress = prog
	return func(ctx context.Context) (any, error) {
		defer s.clearInflight(key, jobs.IDFromContext(ctx))
		ctx = s.jobCtx(ctx, TypeSuite, "benchmarks", len(benchmarks))
		t0 := time.Now()
		res, err := sim.RunSuiteContext(ctx, cfg, benchmarks, parallelism)
		if err != nil {
			return nil, err
		}
		var instrs uint64
		for _, r := range res.PerBench {
			instrs += r.Instructions
			s.recordTiming(r.Timing)
		}
		s.account(instrs, time.Since(t0))
		s.store.Put(key, res)
		return res, nil
	}
}

// recordTiming folds one run's phase profile into the cumulative
// per-phase counters served at /metrics.
func (s *Server) recordTiming(t sim.PhaseTiming) {
	s.phaseMu.Lock()
	s.phaseSecs["setup"] += t.Setup.Seconds()
	s.phaseSecs["warmup"] += t.Warmup.Seconds()
	s.phaseSecs["measure"] += t.Measure.Seconds()
	s.phaseRuns++
	s.phaseMu.Unlock()
}

func (s *Server) account(instructions uint64, busy time.Duration) {
	s.instrTotal.Add(instructions)
	s.busyNanos.Add(int64(busy))
}

func (s *Server) noteJob(id string, m jobMeta) {
	s.mu.Lock()
	s.meta[id] = m
	s.mu.Unlock()
}

func (s *Server) jobMeta(id string) jobMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.meta[id]
}

func (s *Server) status(snap jobs.Snapshot) JobStatus {
	m := s.jobMeta(snap.ID)
	return JobStatus{
		ID:       snap.ID,
		Type:     m.typ,
		State:    snap.State,
		Key:      string(m.key),
		CacheHit: m.cacheHit,
		Created:  snap.Created,
		Started:  snap.Started,
		Finished: snap.Finished,
		Error:    snap.Err,
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	snap, err := s.pool.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, s.status(snap))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, err := s.pool.Get(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	switch snap.State {
	case jobs.StateDone:
	case jobs.StateQueued, jobs.StateRunning:
		writeError(w, http.StatusConflict, "job %s is %s; poll GET /v1/jobs/%s until done", id, snap.State, id)
		return
	default:
		writeError(w, http.StatusConflict, "job %s is %s: %s", id, snap.State, snap.Err)
		return
	}
	m := s.jobMeta(id)
	out := JobResult{ID: id, Type: m.typ}
	field := "run"
	switch res := snap.Result.(type) {
	case *sim.Result:
		out.Run = res
	case *sim.SuiteResult:
		out.Suite, field = res, "suite"
	default:
		writeError(w, http.StatusInternalServerError, "job %s holds unexpected result type %T", id, snap.Result)
		return
	}
	// A result still in the memory tier has its encoding kept there.
	if data := s.store.Encoded(m.key, snap.Result); data != nil {
		writeReply(w, out, func(buf []byte) ([]byte, error) {
			return appendJobResult(buf, id, m.typ, field, data), nil
		})
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, err := s.pool.Get(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	m := s.jobMeta(id)
	out := JobProgress{ID: id, State: snap.State, CacheHit: m.cacheHit}
	if m.progress != nil {
		ps := m.progress.Snapshot()
		out.InstructionsDone = ps.Done
		out.InstructionsTotal = ps.Total
		out.Fraction = ps.Fraction
		out.ElapsedSec = ps.Elapsed.Seconds()
		out.RemainingSec = ps.Remaining.Seconds()
	}
	if snap.State == jobs.StateDone {
		// A finished job is 100% regardless of tick granularity, and a
		// cache hit never ticked at all.
		out.Fraction = 1
		out.RemainingSec = 0
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.pool.Cancel(id); err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	// A job cancelled while still queued never runs its function, so
	// its singleflight registration must be cleared here.
	if m := s.jobMeta(id); m.key != "" {
		s.clearInflight(m.key, id)
	}
	snap, err := s.pool.Get(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, s.status(snap))
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{
		"benchmarks":       workload.Names(),
		"memory_intensive": workload.MemoryIntensive(),
	})
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"experiments": experiments.Names()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Scrapes double as the sweep registry's eviction timer: TTL-expired
	// finished sweeps are dropped even on an otherwise idle daemon.
	s.evictSweeps(time.Now())
	ps := s.pool.Stats()
	cs := s.cache.Stats()
	instr := s.instrTotal.Load()
	busy := time.Duration(s.busyNanos.Load())
	var ips float64
	if busy > 0 {
		ips = float64(instr) / busy.Seconds()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# HELP mapsd_jobs_queued Jobs waiting for a worker.\n")
	fmt.Fprintf(w, "# TYPE mapsd_jobs_queued gauge\nmapsd_jobs_queued %d\n", ps.Queued)
	fmt.Fprintf(w, "# TYPE mapsd_jobs_running gauge\nmapsd_jobs_running %d\n", ps.Running)
	fmt.Fprintf(w, "# TYPE mapsd_jobs_submitted_total counter\nmapsd_jobs_submitted_total %d\n", ps.Submitted)
	fmt.Fprintf(w, "# TYPE mapsd_jobs_completed_total counter\nmapsd_jobs_completed_total %d\n", ps.Completed)
	fmt.Fprintf(w, "# TYPE mapsd_jobs_failed_total counter\nmapsd_jobs_failed_total %d\n", ps.Failed)
	fmt.Fprintf(w, "# TYPE mapsd_jobs_canceled_total counter\nmapsd_jobs_canceled_total %d\n", ps.Canceled)
	fmt.Fprintf(w, "# TYPE mapsd_jobs_rejected_total counter\nmapsd_jobs_rejected_total %d\n", ps.Rejected)
	fmt.Fprintf(w, "# TYPE mapsd_jobs_deduped_total counter\nmapsd_jobs_deduped_total %d\n", s.deduped.Load())
	fmt.Fprintf(w, "# HELP mapsd_jobs_panics_total Job functions that panicked; every one was isolated by the worker.\n")
	fmt.Fprintf(w, "# TYPE mapsd_jobs_panics_total counter\nmapsd_jobs_panics_total %d\n", ps.Panics)
	fmt.Fprintf(w, "# TYPE mapsd_jobs_retries_total counter\nmapsd_jobs_retries_total %d\n", ps.Retries)
	fmt.Fprintf(w, "# HELP mapsd_requests_shed_total Submissions refused with 429 because the queue was saturated.\n")
	fmt.Fprintf(w, "# TYPE mapsd_requests_shed_total counter\nmapsd_requests_shed_total %d\n", s.shed.Load())
	fmt.Fprintf(w, "# TYPE mapsd_http_panics_total counter\nmapsd_http_panics_total %d\n", s.httpPanics.Load())
	fmt.Fprintf(w, "# TYPE mapsd_workers gauge\nmapsd_workers %d\n", ps.Workers)
	fmt.Fprintf(w, "# TYPE mapsd_cache_hits_total counter\nmapsd_cache_hits_total %d\n", cs.Hits)
	fmt.Fprintf(w, "# TYPE mapsd_cache_misses_total counter\nmapsd_cache_misses_total %d\n", cs.Misses)
	fmt.Fprintf(w, "# TYPE mapsd_cache_evictions_total counter\nmapsd_cache_evictions_total %d\n", cs.Evictions)
	fmt.Fprintf(w, "# TYPE mapsd_cache_dropped_puts_total counter\nmapsd_cache_dropped_puts_total %d\n", cs.DroppedPuts)
	fmt.Fprintf(w, "# TYPE mapsd_cache_entries gauge\nmapsd_cache_entries %d\n", cs.Entries)
	fmt.Fprintf(w, "# HELP mapsd_cache_bytes Approximate resident bytes in the memory result tier.\n")
	fmt.Fprintf(w, "# TYPE mapsd_cache_bytes gauge\nmapsd_cache_bytes %d\n", cs.SizeBytes)
	fmt.Fprintf(w, "# TYPE mapsd_cache_hit_ratio gauge\nmapsd_cache_hit_ratio %g\n", cs.HitRatio())

	sts := s.store.Stats()
	fmt.Fprintf(w, "# HELP mapsd_store_hits_total Result-store lookups answered, by tier.\n")
	fmt.Fprintf(w, "# TYPE mapsd_store_hits_total counter\n")
	fmt.Fprintf(w, "mapsd_store_hits_total{tier=\"memory\"} %d\n", sts.MemHits)
	fmt.Fprintf(w, "mapsd_store_hits_total{tier=\"disk\"} %d\n", sts.DiskHits)
	fmt.Fprintf(w, "mapsd_store_hits_total{tier=\"peer\"} %d\n", sts.PeerFills)
	fmt.Fprintf(w, "# TYPE mapsd_store_misses_total counter\nmapsd_store_misses_total %d\n", sts.Misses)
	fmt.Fprintf(w, "# TYPE mapsd_store_puts_total counter\nmapsd_store_puts_total %d\n", sts.Puts)
	fmt.Fprintf(w, "# TYPE mapsd_store_disk_puts_total counter\nmapsd_store_disk_puts_total %d\n", sts.DiskPuts)
	fmt.Fprintf(w, "# HELP mapsd_store_dropped_disk_puts_total Disk-tier writes lost to faults, write errors, a full queue, or shutdown.\n")
	fmt.Fprintf(w, "# TYPE mapsd_store_dropped_disk_puts_total counter\nmapsd_store_dropped_disk_puts_total %d\n", sts.DroppedDiskPuts)
	fmt.Fprintf(w, "# TYPE mapsd_store_gc_evictions_total counter\nmapsd_store_gc_evictions_total %d\n", sts.GCEvictions)
	fmt.Fprintf(w, "# HELP mapsd_store_quarantined_total Corrupt disk records copied aside and dropped; each costs one recompute, never an error.\n")
	fmt.Fprintf(w, "# TYPE mapsd_store_quarantined_total counter\nmapsd_store_quarantined_total %d\n", sts.Quarantined)
	fmt.Fprintf(w, "# TYPE mapsd_store_disk_errors_total counter\nmapsd_store_disk_errors_total %d\n", sts.DiskErrors)
	fmt.Fprintf(w, "# TYPE mapsd_store_peer_fills_total counter\nmapsd_store_peer_fills_total %d\n", sts.PeerFills)
	fmt.Fprintf(w, "# TYPE mapsd_store_peer_errors_total counter\nmapsd_store_peer_errors_total %d\n", sts.PeerErrors)
	fmt.Fprintf(w, "# TYPE mapsd_store_entries gauge\nmapsd_store_entries %d\n", sts.DiskEntries)
	fmt.Fprintf(w, "# HELP mapsd_store_bytes Bytes of live records in the disk tier, the quantity -store-max-bytes caps.\n")
	fmt.Fprintf(w, "# TYPE mapsd_store_bytes gauge\nmapsd_store_bytes %d\n", sts.DiskBytes)
	fmt.Fprintf(w, "# TYPE mapsd_store_pending_writes gauge\nmapsd_store_pending_writes %d\n", sts.PendingWrites)
	fmt.Fprintf(w, "# TYPE mapsd_store_peers gauge\nmapsd_store_peers %d\n", sts.Peers)
	fmt.Fprintf(w, "# TYPE mapsd_simulated_instructions_total counter\nmapsd_simulated_instructions_total %d\n", instr)
	fmt.Fprintf(w, "# TYPE mapsd_simulated_instructions_per_second gauge\nmapsd_simulated_instructions_per_second %g\n", ips)
	fmt.Fprintf(w, "# TYPE mapsd_uptime_seconds gauge\nmapsd_uptime_seconds %g\n", time.Since(s.started).Seconds())

	s.phaseMu.Lock()
	setup, warmup, measure := s.phaseSecs["setup"], s.phaseSecs["warmup"], s.phaseSecs["measure"]
	runs := s.phaseRuns
	s.phaseMu.Unlock()
	fmt.Fprintf(w, "# HELP mapsd_sim_phase_seconds_total Wall-clock per simulation phase across finished runs.\n")
	fmt.Fprintf(w, "# TYPE mapsd_sim_phase_seconds_total counter\n")
	fmt.Fprintf(w, "mapsd_sim_phase_seconds_total{phase=\"setup\"} %g\n", setup)
	fmt.Fprintf(w, "mapsd_sim_phase_seconds_total{phase=\"warmup\"} %g\n", warmup)
	fmt.Fprintf(w, "mapsd_sim_phase_seconds_total{phase=\"measure\"} %g\n", measure)
	fmt.Fprintf(w, "# TYPE mapsd_sim_phase_runs_total counter\nmapsd_sim_phase_runs_total %d\n", runs)

	ss := s.SweepStatsSnapshot()
	s.mu.Lock()
	sweepsRunning := s.running
	s.mu.Unlock()
	fmt.Fprintf(w, "# HELP mapsd_sweeps_started_total Sweeps admitted by POST /v1/sweeps.\n")
	fmt.Fprintf(w, "# TYPE mapsd_sweeps_started_total counter\nmapsd_sweeps_started_total %d\n", ss.Started)
	fmt.Fprintf(w, "# TYPE mapsd_sweeps_running gauge\nmapsd_sweeps_running %d\n", sweepsRunning)
	fmt.Fprintf(w, "# TYPE mapsd_sweep_points_planned_total counter\nmapsd_sweep_points_planned_total %d\n", ss.PointsPlanned)
	fmt.Fprintf(w, "# TYPE mapsd_sweep_points_done_total counter\nmapsd_sweep_points_done_total %d\n", ss.PointsDone)
	fmt.Fprintf(w, "# HELP mapsd_sweep_points_deduped_total Sweep points served from the results cache without simulating.\n")
	fmt.Fprintf(w, "# TYPE mapsd_sweep_points_deduped_total counter\nmapsd_sweep_points_deduped_total %d\n", ss.PointsDeduped)
	fmt.Fprintf(w, "# HELP mapsd_sweeps_evicted_total Finished sweeps dropped from the registry by TTL or the registry cap.\n")
	fmt.Fprintf(w, "# TYPE mapsd_sweeps_evicted_total counter\nmapsd_sweeps_evicted_total %d\n", s.sweepsEvicted.Load())
	fmt.Fprintf(w, "# HELP mapsd_sweeps_recovered_total Unfinished sweeps resumed from the journal at startup.\n")
	fmt.Fprintf(w, "# TYPE mapsd_sweeps_recovered_total counter\nmapsd_sweeps_recovered_total %d\n", s.sweepsRecovered.Load())

	if s.journal != nil {
		js := s.journal.Stats()
		fmt.Fprintf(w, "# HELP mapsd_journal_appends_total Sweep journal records durably appended: admissions, terminal statuses, and NoCache sweeps' points.\n")
		fmt.Fprintf(w, "# TYPE mapsd_journal_appends_total counter\nmapsd_journal_appends_total %d\n", js.Appends)
		fmt.Fprintf(w, "# HELP mapsd_journal_dropped_appends_total Journal records lost to write errors or faults; each costs recovery fidelity, never availability.\n")
		fmt.Fprintf(w, "# TYPE mapsd_journal_dropped_appends_total counter\nmapsd_journal_dropped_appends_total %d\n", js.DroppedAppends)
		fmt.Fprintf(w, "# TYPE mapsd_journal_replayed_sweeps_total counter\nmapsd_journal_replayed_sweeps_total %d\n", js.ReplayedSweeps)
		fmt.Fprintf(w, "# HELP mapsd_journal_recovered_points_total Completed points replayed from journals: NoCache sweeps' points and legacy point records.\n")
		fmt.Fprintf(w, "# TYPE mapsd_journal_recovered_points_total counter\nmapsd_journal_recovered_points_total %d\n", js.RecoveredPoints)
		fmt.Fprintf(w, "# HELP mapsd_journal_truncated_tails_total Torn journal tails healed in place during replay.\n")
		fmt.Fprintf(w, "# TYPE mapsd_journal_truncated_tails_total counter\nmapsd_journal_truncated_tails_total %d\n", js.TruncatedTails)
		fmt.Fprintf(w, "# HELP mapsd_journal_quarantined_total Corrupt journals moved aside; each costs one sweep's recovery, never a crash.\n")
		fmt.Fprintf(w, "# TYPE mapsd_journal_quarantined_total counter\nmapsd_journal_quarantined_total %d\n", js.Quarantined)
	}

	// Fleet dispatch counters, one labeled series per worker this
	// coordinator has ever dispatched to ("local" is this daemon's own
	// pool). Sorted so the exposition is deterministic.
	fs := s.fleetMetrics.Snapshot()
	fleetNames := make([]string, 0, len(fs))
	for name := range fs {
		fleetNames = append(fleetNames, name)
	}
	sort.Strings(fleetNames)
	fmt.Fprintf(w, "# HELP mapsd_fleet_workers Sweep workers this coordinator dispatches to (local pool included).\n")
	fmt.Fprintf(w, "# TYPE mapsd_fleet_workers gauge\nmapsd_fleet_workers %d\n", len(s.fleetWorkers)+1)
	if len(fleetNames) > 0 {
		fmt.Fprintf(w, "# HELP mapsd_fleet_inflight Sweep points currently dispatched, per worker.\n")
		fmt.Fprintf(w, "# TYPE mapsd_fleet_inflight gauge\n")
		for _, n := range fleetNames {
			fmt.Fprintf(w, "mapsd_fleet_inflight{worker=%q} %d\n", n, fs[n].Inflight)
		}
		fmt.Fprintf(w, "# TYPE mapsd_fleet_points_done_total counter\n")
		for _, n := range fleetNames {
			fmt.Fprintf(w, "mapsd_fleet_points_done_total{worker=%q} %d\n", n, fs[n].Done)
		}
		fmt.Fprintf(w, "# HELP mapsd_fleet_steals_total Points a worker picked up while another worker was still running them.\n")
		fmt.Fprintf(w, "# TYPE mapsd_fleet_steals_total counter\n")
		for _, n := range fleetNames {
			fmt.Fprintf(w, "mapsd_fleet_steals_total{worker=%q} %d\n", n, fs[n].Steals)
		}
		fmt.Fprintf(w, "# HELP mapsd_fleet_reissues_total Straggler re-issues charged to the worker that held the point.\n")
		fmt.Fprintf(w, "# TYPE mapsd_fleet_reissues_total counter\n")
		for _, n := range fleetNames {
			fmt.Fprintf(w, "mapsd_fleet_reissues_total{worker=%q} %d\n", n, fs[n].Reissues)
		}
		fmt.Fprintf(w, "# HELP mapsd_fleet_worker_failures_total Dispatches that failed for worker (not simulation) reasons; each was re-issued up to the attempt cap.\n")
		fmt.Fprintf(w, "# TYPE mapsd_fleet_worker_failures_total counter\n")
		for _, n := range fleetNames {
			fmt.Fprintf(w, "mapsd_fleet_worker_failures_total{worker=%q} %d\n", n, fs[n].Failures)
		}
		fmt.Fprintf(w, "# HELP mapsd_fleet_unhealthy_total Healthy-to-unhealthy probe transitions, per worker.\n")
		fmt.Fprintf(w, "# TYPE mapsd_fleet_unhealthy_total counter\n")
		for _, n := range fleetNames {
			fmt.Fprintf(w, "mapsd_fleet_unhealthy_total{worker=%q} %d\n", n, fs[n].Unhealthy)
		}
	}

	done, total := s.inflightProgress()
	fmt.Fprintf(w, "# HELP mapsd_inflight_instructions_done Instructions retired by jobs not yet finished.\n")
	fmt.Fprintf(w, "# TYPE mapsd_inflight_instructions_done gauge\nmapsd_inflight_instructions_done %d\n", done)
	fmt.Fprintf(w, "# TYPE mapsd_inflight_instructions_total gauge\nmapsd_inflight_instructions_total %d\n", total)

	for _, line := range s.http.metricsLines() {
		fmt.Fprintln(w, line)
	}

	// Fault-injection accounting, so a chaos run can reconcile every
	// injected fault against the failure counters above. Absent (not
	// zero-valued) when nothing has fired — the overwhelmingly common
	// production state.
	if snap := faults.Snapshot(); len(snap) > 0 {
		points := make([]string, 0, len(snap))
		for point := range snap {
			points = append(points, point)
		}
		sort.Strings(points)
		fmt.Fprintf(w, "# HELP mapsd_faults_injected_total Faults injected per armed injection point.\n")
		fmt.Fprintf(w, "# TYPE mapsd_faults_injected_total counter\n")
		for _, point := range points {
			fmt.Fprintf(w, "mapsd_faults_injected_total{point=%q} %d\n", point, snap[point])
		}
	}
}

// inflightProgress sums progress over every job that is still queued
// or running, for the progress gauges.
func (s *Server) inflightProgress() (done, total uint64) {
	s.mu.Lock()
	type idProg struct {
		id   string
		prog *obs.Progress
	}
	active := make([]idProg, 0, len(s.meta))
	for id, m := range s.meta {
		if m.progress != nil {
			active = append(active, idProg{id, m.progress})
		}
	}
	s.mu.Unlock()
	for _, a := range active {
		snap, err := s.pool.Get(a.id)
		if err != nil || snap.State.Terminal() {
			continue
		}
		ps := a.prog.Snapshot()
		done += ps.Done
		total += ps.Total
	}
	return done, total
}
