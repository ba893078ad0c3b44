// Command mapsd serves the MAPS simulator as a long-lived daemon:
// submit simulation jobs or parameter sweeps over HTTP, poll
// their status and progress, and fetch results. Identical requests
// (by canonical config hash) are answered from an LRU result cache
// without re-simulating; sweeps consult the same cache per point and
// report how many points it absorbed.
//
// Usage:
//
//	mapsd [-addr :8750] [-workers N] [-queue N] [-cache-entries N]
//	      [-store-dir DIR] [-store-max-bytes SIZE] [-peers URL,...]
//	      [-fleet URL,...] [-fleet-inflight N] [-straggler-after DUR]
//	      [-journal-dir DIR] [-journal-fsync always|interval|never]
//	      [-sweep-ttl DUR] [-max-sweeps N]
//	      [-log-format text|json] [-v] [-pprof] [-faults SPEC]
//
// Endpoints (see internal/server and docs/OBSERVABILITY.md):
//
//	POST   /v1/jobs             GET /v1/jobs/{id}[/result|/progress]
//	DELETE /v1/jobs/{id}        GET /v1/benchmarks /v1/experiments
//	POST   /v1/sweeps           GET /v1/sweeps/{id}[/result][?watch=1]
//	DELETE /v1/sweeps/{id}      GET /metrics /healthz /readyz
//	GET    /debug/pprof/        (only with -pprof)
//
// /healthz answers 200 while the process lives; /readyz answers 503
// while the daemon is draining or its queue is saturated, so load
// balancers stop routing before requests start being shed.
//
// Logs are structured (log/slog) on stderr; -log-format json emits
// one JSON object per line, -v adds Debug-level span and scrape
// events. On SIGINT/SIGTERM the daemon marks itself unready, stops
// accepting work, drains running and queued jobs (bounded by
// -drain-timeout), and exits.
//
// -store-dir enables the persistent result store's disk tier
// (internal/store): results survive restarts, so a re-run sweep is
// answered from disk instead of re-simulated. -store-max-bytes caps
// it ("2GB", "512MB", or bytes; 0 = unlimited) with an LRA GC.
// -peers lists other mapsd base URLs consulted on local store misses
// over GET /v1/store/{key}, so a fleet shares results instead of
// recomputing them. Pending disk writes are flushed during the
// graceful drain, and a one-line store summary is logged at startup
// and shutdown.
//
// -fleet registers other mapsd daemons as sweep workers: every
// POST /v1/sweeps fans its grid points out over this daemon's own
// pool plus the registered workers, with bounded in-flight work per
// worker (-fleet-inflight), health gating via each worker's /readyz,
// work stealing, and straggler re-issue after -straggler-after
// (negative disables it). Results dedupe exactly-once through the
// result store's canonical config hashes, so pointing -peers at the
// same daemons lets the fleet share results instead of recomputing
// them. See docs/FLEET.md for the operator guide.
//
// -journal-dir enables the per-sweep write-ahead journal
// (internal/journal): every sweep admission, point completion, and
// terminal status is logged durably, so a daemon killed mid-sweep
// replays intact journals on the next start, pre-marks the completed
// points (the result store answers them without re-simulation), and
// resumes dispatch under the same sweep ID — watching clients
// reattach to GET /v1/sweeps/{id}. Torn journal tails are truncated;
// corrupt journals are quarantined under <dir>/quarantine.
// -journal-fsync trades durability for append latency: "always"
// (default) fsyncs every record, "interval" batches syncs (~100ms
// windows), "never" leaves flushing to the OS. Finished sweeps are
// evicted from the registry (journal file included) after -sweep-ttl,
// or earliest-first beyond -max-sweeps; results stay in the store.
//
// -faults (default: the MAPSD_FAULTS environment variable) arms
// deterministic fault injection for chaos drills, e.g.
// "jobs.run:err:0.01,results.put:err:0.05" — see docs/ROBUSTNESS.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/maps-sim/mapsim"
	"github.com/maps-sim/mapsim/internal/cliutil"
	"github.com/maps-sim/mapsim/internal/faults"
	"github.com/maps-sim/mapsim/internal/fleet"
	"github.com/maps-sim/mapsim/internal/journal"
	"github.com/maps-sim/mapsim/internal/obs"
	"github.com/maps-sim/mapsim/internal/results"
	"github.com/maps-sim/mapsim/internal/server"
	"github.com/maps-sim/mapsim/internal/store"
)

// buildPeers turns the -peers list into store peers backed by the
// retrying mapsim.Client, so peer fill inherits its backoff and
// Retry-After handling. Retries are kept short: a slow peer must cost
// less than recomputing locally.
func buildPeers(spec string) []store.Peer {
	var peers []store.Peer
	for _, u := range strings.Split(spec, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		pc := mapsim.NewClient(u)
		pc.MaxRetries = 1
		pc.RetryBase = 50 * time.Millisecond
		peers = append(peers, store.Peer{
			Name: u,
			Fetch: func(ctx context.Context, key results.Key) ([]byte, error) {
				return pc.StoreFetch(ctx, string(key))
			},
		})
	}
	return peers
}

// buildFleet turns the -fleet list into remote sweep workers over the
// retrying mapsim.Client. Client retries stay at their defaults: a
// dispatched point is worth a few retransmits before the coordinator
// writes the worker off and re-issues elsewhere.
func buildFleet(spec string, maxInflight int) []fleet.Worker {
	var workers []fleet.Worker
	for _, u := range strings.Split(spec, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		workers = append(workers, mapsim.FleetWorker(mapsim.NewClient(u), maxInflight))
	}
	return workers
}

func main() {
	addr := flag.String("addr", ":8750", "listen address")
	workers := flag.Int("workers", runtime.NumCPU(), "simulation worker count")
	queue := flag.Int("queue", 64, "job queue depth (beyond it, submissions get 503)")
	cacheEntries := flag.Int("cache-entries", 256, "result cache capacity (entries)")
	storeDir := flag.String("store-dir", "", "persistent result-store directory (empty = memory-only)")
	storeMax := flag.String("store-max-bytes", "1GB", "disk-tier size cap before GC evicts least-recently-accessed results (0 = unlimited)")
	peersSpec := flag.String("peers", "", "comma-separated peer mapsd base URLs consulted on local store misses")
	fleetSpec := flag.String("fleet", "", "comma-separated worker mapsd base URLs sweeps fan out to (this daemon's pool is always the first worker)")
	fleetInflight := flag.Int("fleet-inflight", 2, "max in-flight sweep points per fleet worker")
	stragglerAfter := flag.Duration("straggler-after", 30*time.Second, "re-issue a sweep point still in flight on one worker after this long (negative disables)")
	journalDir := flag.String("journal-dir", "", "sweep write-ahead journal directory; unfinished sweeps resume on restart (empty = no journal)")
	journalFsync := flag.String("journal-fsync", "always", "journal fsync policy: always, interval, or never")
	sweepTTL := flag.Duration("sweep-ttl", time.Hour, "evict finished sweeps (and their journals) from the registry after this long (negative disables)")
	maxSweeps := flag.Int("max-sweeps", 512, "max sweeps kept in the registry; oldest finished are evicted first (negative = uncapped)")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "max time to drain jobs on shutdown")
	logFormat := flag.String("log-format", obs.FormatText, "log output format: text or json")
	verbose := flag.Bool("v", false, "verbose logging (Debug level: spans, scrapes)")
	withPprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	faultSpec := flag.String("faults", os.Getenv("MAPSD_FAULTS"),
		"fault-injection spec, e.g. point:mode[:rate],... (default $MAPSD_FAULTS)")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat, *verbose)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mapsd: %v\n", err)
		os.Exit(2)
	}

	if *faultSpec != "" {
		if err := faults.ArmSpec(*faultSpec); err != nil {
			fmt.Fprintf(os.Stderr, "mapsd: -faults: %v\n", err)
			os.Exit(2)
		}
		logger.Warn("fault injection armed", "points", faults.Armed(), "spec", *faultSpec)
	}

	maxBytes, err := cliutil.ParseSize(*storeMax)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mapsd: -store-max-bytes: %v\n", err)
		os.Exit(2)
	}
	st, err := store.Open(store.Options{
		Memory:   results.New(*cacheEntries),
		Dir:      *storeDir,
		MaxBytes: int64(maxBytes),
		Peers:    buildPeers(*peersSpec),
		Logger:   logger,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mapsd: -store-dir: %v\n", err)
		os.Exit(2)
	}
	ss := st.Stats()
	storeDirLabel := ss.Dir
	if storeDirLabel == "" {
		storeDirLabel = "(memory-only)"
	}
	logger.Info("result store open",
		"dir", storeDirLabel, "entries", ss.DiskEntries, "bytes", ss.DiskBytes, "peers", ss.Peers)

	var jdir *journal.Dir
	if *journalDir != "" {
		sync, err := journal.ParseSync(*journalFsync)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mapsd: -journal-fsync: %v\n", err)
			os.Exit(2)
		}
		jdir, err = journal.Open(journal.Options{Dir: *journalDir, Sync: sync, Logger: logger})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mapsd: -journal-dir: %v\n", err)
			os.Exit(2)
		}
		logger.Info("sweep journal open", "dir", jdir.Path(), "fsync", sync.String())
	}

	fleetWorkers := buildFleet(*fleetSpec, *fleetInflight)
	if len(fleetWorkers) > 0 {
		names := make([]string, len(fleetWorkers))
		for i, w := range fleetWorkers {
			names[i] = w.Runner.Name()
		}
		logger.Info("fleet workers registered",
			"workers", names, "max_inflight", *fleetInflight, "straggler_after", *stragglerAfter)
	}

	srv := server.New(server.Config{
		Workers:             *workers,
		QueueDepth:          *queue,
		Store:               st,
		Logger:              logger,
		EnablePprof:         *withPprof,
		Fleet:               fleetWorkers,
		FleetStragglerAfter: *stragglerAfter,
		Journal:             jdir,
		SweepTTL:            *sweepTTL,
		MaxSweeps:           *maxSweeps,
	})
	// Timeouts bound every connection phase so one stalled client
	// cannot pin a goroutine: headers in 10s, the whole request in
	// 30s, responses written within 60s (sweep results are large but
	// bounded), idle keep-alives reaped after 2 minutes.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("mapsd listening",
			"addr", *addr,
			"workers", *workers,
			"queue", *queue,
			"cache_entries", *cacheEntries,
			"pprof", *withPprof)
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		logger.Info("mapsd draining", "signal", sig.String(), "drain_timeout", *drainTimeout)
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "mapsd: %v\n", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Flip readiness first — probes see 503 and load balancers stop
	// routing — then stop intake so drains can't be outrun by new
	// submissions, then let running and queued jobs finish.
	srv.MarkDraining()
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Error("http shutdown", "error", err)
	}
	// srv.Shutdown drains the pool, then flushes every pending
	// disk-tier write and closes the store — results the final jobs
	// computed are on disk before the process exits.
	drainErr := srv.Shutdown(ctx)
	ss = st.Stats()
	logger.Info("result store closed",
		"dir", storeDirLabel, "entries", ss.DiskEntries, "bytes", ss.DiskBytes,
		"disk_puts", ss.DiskPuts, "dropped_disk_puts", ss.DroppedDiskPuts,
		"gc_evictions", ss.GCEvictions, "peer_fills", ss.PeerFills)
	if drainErr != nil {
		if errors.Is(drainErr, context.DeadlineExceeded) {
			logger.Error("drain timed out; in-flight jobs were cancelled")
		} else {
			logger.Error("drain", "error", drainErr)
		}
		os.Exit(1)
	}
	logger.Info("drained cleanly")
}
