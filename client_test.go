package mapsim_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"github.com/maps-sim/mapsim"
	"github.com/maps-sim/mapsim/internal/server"
	"github.com/maps-sim/mapsim/internal/store"
)

// startDaemon runs the mapsd service in-process, exactly as cmd/mapsd
// wires it, and returns a client pointed at it.
func startDaemon(t *testing.T) (*mapsim.Client, *server.Server) {
	t.Helper()
	srv := server.New(server.Config{Workers: 2, QueueDepth: 8, CacheEntries: 16})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	c := mapsim.NewClient(ts.URL)
	c.PollInterval = 5 * time.Millisecond
	return c, srv
}

// The acceptance path: a suite — a sweep over the benchmark axis —
// served end-to-end through the client, then the identical request
// answered from the store without re-running the simulator.
func TestClientSuiteEndToEndWithCache(t *testing.T) {
	c, srv := startDaemon(t)
	ctx := context.Background()
	req := mapsim.SweepRequest{
		Base:        mapsim.ConfigSpec{Instructions: 30_000},
		Axes:        mapsim.SweepAxes{Benchmarks: []string{"libquantum", "fft"}},
		Parallelism: 2,
	}

	sr, err := c.RunSweepRemote(ctx, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := sr.Suite()
	if len(first.PerBench) != 2 || first.GeomeanIPC <= 0 {
		t.Fatalf("suite result: %+v", first)
	}

	hitsBefore := srv.CacheStats().Hits
	poolBefore := srv.PoolStats()

	st, err := c.Sweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != mapsim.JobDone || st.Total != 2 || st.Deduped != 2 {
		t.Fatalf("second identical suite POST must be a born-done store hit: %+v", st)
	}
	if hits := srv.CacheStats().Hits; hits != hitsBefore+2 {
		t.Fatalf("cache hits %d → %d, want +2 (one per benchmark)", hitsBefore, hits)
	}
	res, err := c.SweepResultRemote(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if again := res.Suite(); len(again.PerBench) != 2 || again.GeomeanIPC != first.GeomeanIPC {
		t.Fatalf("cached suite result: %+v", again)
	}
	// No worker ran anything: the pool saw no new job at all.
	if got := srv.PoolStats(); got.Submitted != poolBefore.Submitted || got.Completed != poolBefore.Completed {
		t.Fatalf("pool submitted %d → %d, completed %d → %d, want no change (no re-simulation)",
			poolBefore.Submitted, got.Submitted, poolBefore.Completed, got.Completed)
	}
}

func TestClientRunRemote(t *testing.T) {
	c, _ := startDaemon(t)
	ctx := context.Background()
	res, err := c.RunRemote(ctx, mapsim.ConfigSpec{
		Benchmark:    "libquantum",
		Instructions: 50_000,
		Meta:         &mapsim.MetaSpec{Size: 64 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Benchmark != "libquantum" || res.MetaHitRate <= 0 {
		t.Fatalf("result: %+v", res)
	}
}

func TestClientErrors(t *testing.T) {
	c, _ := startDaemon(t)
	ctx := context.Background()
	if _, err := c.Job(ctx, "j-99999999"); err == nil {
		t.Fatal("want 404 error")
	} else {
		var apiErr *mapsim.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != 404 {
			t.Fatalf("got %v, want APIError 404", err)
		}
	}
	if _, err := c.RunRemote(ctx, mapsim.ConfigSpec{Benchmark: "no-such-bench"}); err == nil {
		t.Fatal("want 400 error for unknown benchmark")
	}
}

func TestClientCancel(t *testing.T) {
	c, _ := startDaemon(t)
	ctx := context.Background()
	st, err := c.Submit(ctx, mapsim.JobRequest{
		Type:   mapsim.JobRun,
		Config: mapsim.ConfigSpec{Benchmark: "libquantum", Instructions: 2_000_000_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != mapsim.JobCanceled {
		t.Fatalf("state %s, want canceled", final.State)
	}
}

func TestClientProgress(t *testing.T) {
	c, _ := startDaemon(t)
	ctx := context.Background()
	res, err := c.RunRemote(ctx, mapsim.ConfigSpec{Benchmark: "fft", Instructions: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions < 50_000 {
		t.Fatalf("instructions %d, want ≥ 50000", res.Instructions)
	}
	// RunRemote waits for completion, but the job ID is internal to it;
	// resubmit (cache hit) and probe progress on the returned job.
	st, err := c.Submit(ctx, mapsim.JobRequest{
		Type: mapsim.JobRun, Config: mapsim.ConfigSpec{Benchmark: "fft", Instructions: 50_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Progress(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.ID != st.ID || p.Fraction != 1 || !p.CacheHit {
		t.Fatalf("cache-hit progress: %+v", p)
	}
	if _, err := c.Progress(ctx, "j-99999999"); err == nil {
		t.Fatal("want 404 error for unknown job progress")
	}
}

func TestClientBenchmarks(t *testing.T) {
	c, _ := startDaemon(t)
	names, err := c.RemoteBenchmarks(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("no benchmarks listed")
	}
}

// An already-cancelled context must fail fast from every client call —
// no HTTP attempt, no retry sleeps, just the context error.
func TestClientCanceledContext(t *testing.T) {
	c, _ := startDaemon(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := c.Submit(ctx, mapsim.JobRequest{Type: mapsim.JobRun,
		Config: mapsim.ConfigSpec{Benchmark: "libquantum", Instructions: 50_000}}); !errors.Is(err, context.Canceled) {
		t.Errorf("Submit: %v, want context.Canceled", err)
	}
	if _, err := c.Wait(ctx, "j-00000001"); !errors.Is(err, context.Canceled) {
		t.Errorf("Wait: %v, want context.Canceled", err)
	}
	if _, err := c.Progress(ctx, "j-00000001"); !errors.Is(err, context.Canceled) {
		t.Errorf("Progress: %v, want context.Canceled", err)
	}
	if got := c.Retries(); got != 0 {
		t.Errorf("retries %d, want 0 (context errors are never retried)", got)
	}
}

// Transient statuses are retried until the daemon recovers;
// non-transient errors are returned on the first attempt.
func TestClientRetriesTransientStatus(t *testing.T) {
	var calls atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"warming up"}`, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"id":"j-00000001","state":"done"}`)
	}))
	defer stub.Close()

	c := mapsim.NewClient(stub.URL)
	c.RetryBase = time.Millisecond
	st, err := c.Job(context.Background(), "j-00000001")
	if err != nil {
		t.Fatalf("Job after transient 503s: %v", err)
	}
	if st.State != mapsim.JobDone {
		t.Errorf("state %s, want done", st.State)
	}
	if got := c.Retries(); got != 2 {
		t.Errorf("retries %d, want 2", got)
	}

	// A 404 is not transient: exactly one attempt, no retries.
	calls.Store(100)
	c2 := mapsim.NewClient(stub.URL)
	c2.RetryBase = time.Millisecond
	stub.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"no such job"}`, http.StatusNotFound)
	})
	if _, err := c2.Job(context.Background(), "j-00000002"); err == nil {
		t.Fatal("want 404 error")
	}
	if got := c2.Retries(); got != 0 {
		t.Errorf("retries %d, want 0 for 404", got)
	}
}

// The idempotency acceptance test: a flaky proxy forwards the client's
// first POST to the daemon — so the job lands — but reports 503, making
// the client retry a submission that already succeeded. Server-side
// dedup (canonical config hash) must coalesce the retry onto the
// existing job: one simulation runs, not two.
func TestClientRetryIdempotentSubmit(t *testing.T) {
	c, srv := startDaemon(t)
	daemonURL, err := url.Parse(c.BaseURL)
	if err != nil {
		t.Fatal(err)
	}
	passthrough := httputil.NewSingleHostReverseProxy(daemonURL)

	var dropped atomic.Bool
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" && !dropped.Swap(true) {
			// Deliver the submission, then pretend the response was lost.
			body, _ := io.ReadAll(r.Body)
			resp, err := http.Post(c.BaseURL+r.URL.Path, r.Header.Get("Content-Type"), bytes.NewReader(body))
			if err != nil {
				t.Errorf("proxy forward: %v", err)
			} else {
				resp.Body.Close()
			}
			http.Error(w, `{"error":"response lost by chaos proxy"}`, http.StatusServiceUnavailable)
			return
		}
		passthrough.ServeHTTP(w, r)
	}))
	defer proxy.Close()

	flaky := mapsim.NewClient(proxy.URL)
	flaky.RetryBase = time.Millisecond
	flaky.PollInterval = 5 * time.Millisecond

	ctx := context.Background()
	st, err := flaky.Submit(ctx, mapsim.JobRequest{
		Type: mapsim.JobRun,
		// Long-running, so the first submission is still in flight when
		// the retry arrives and singleflight can coalesce them.
		Config: mapsim.ConfigSpec{Benchmark: "libquantum", Instructions: 2_000_000_000},
	})
	if err != nil {
		t.Fatalf("Submit through flaky proxy: %v", err)
	}
	defer flaky.Cancel(ctx, st.ID)

	if got := flaky.Retries(); got != 1 {
		t.Errorf("client retries %d, want 1", got)
	}
	if !st.Deduped {
		t.Error("retried submission not marked deduped")
	}
	if got := srv.Deduped(); got != 1 {
		t.Errorf("server dedup count %d, want 1 (retry coalesced)", got)
	}
	if got := srv.PoolStats().Submitted; got != 1 {
		t.Errorf("pool submissions %d, want 1 — the retry must not start a second simulation", got)
	}
}

// The sweep path end to end: submit, stream progress, fetch the
// aggregated result, then dedupe the identical sweep from the cache.
func TestClientSweepEndToEnd(t *testing.T) {
	c, _ := startDaemon(t)
	req := mapsim.SweepRequest{
		Base: mapsim.ConfigSpec{Instructions: 20_000, Speculation: true},
		Axes: mapsim.SweepAxes{
			Benchmarks: []string{"fft"},
			Meta:       mapsim.SweepIntAxis{Points: []mapsim.ByteSize{16 << 10, 64 << 10}},
			Contents:   []string{"counters", "all"},
		},
	}

	var updates atomic.Int32
	res, err := c.RunSweepRemote(context.Background(), req, func(st mapsim.SweepStatus) {
		updates.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 4 || res.Done != 4 || len(res.Points) != 4 {
		t.Fatalf("sweep result shape: %+v", res)
	}
	if updates.Load() == 0 {
		t.Fatal("no progress updates streamed")
	}
	for i, p := range res.Points {
		if p.Result == nil {
			t.Fatalf("point %d has no result", i)
		}
	}

	// The identical sweep again: every point must come from the cache.
	res2, err := c.RunSweepRemote(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Deduped == 0 {
		t.Fatalf("repeat sweep deduped %d points, want > 0", res2.Deduped)
	}
}

// TestClientReusesConnection: a client that runs sweep after sweep
// keeps one keep-alive connection to the daemon. Every reply — the
// streamed watch and the chunked result alike — must be read to its
// end, or the transport discards the connection and dials again.
func TestClientReusesConnection(t *testing.T) {
	c, _ := startDaemon(t)
	var dials atomic.Int32
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		return (&net.Dialer{}).DialContext(ctx, network, addr)
	}}
	t.Cleanup(tr.CloseIdleConnections)
	c.HTTPClient = &http.Client{Transport: tr}
	req := mapsim.SweepRequest{
		Base: mapsim.ConfigSpec{Instructions: 20_000, Speculation: true},
		Axes: mapsim.SweepAxes{
			Benchmarks: []string{"fft", "canneal"},
			Meta:       mapsim.SweepIntAxis{Points: []mapsim.ByteSize{16 << 10, 32 << 10, 64 << 10, 128 << 10}},
		},
	}
	for i := 0; i < 4; i++ {
		if _, err := c.RunSweepRemote(context.Background(), req, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("4 sequential sweeps dialed %d connections, want 1", n)
	}
}

func TestClientSweepBadSpec(t *testing.T) {
	c, _ := startDaemon(t)
	_, err := c.Sweep(context.Background(), mapsim.SweepRequest{
		Base: mapsim.ConfigSpec{Instructions: 1000},
		Axes: mapsim.SweepAxes{Benchmarks: []string{"quake4"}},
	})
	if err == nil {
		t.Fatal("Sweep accepted an unknown benchmark")
	}
}

// TestClientStoreFetch drives the peer-fill verb through the real
// client: a computed job's envelope comes back decodable, an unknown
// key is a 404 *APIError (not retried), a hostile key a 400.
func TestClientStoreFetch(t *testing.T) {
	c, _ := startDaemon(t)
	ctx := context.Background()
	st, err := c.Submit(ctx, mapsim.JobRequest{
		Config: mapsim.ConfigSpec{Benchmark: "libquantum", Instructions: 30_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}

	raw, err := c.StoreFetch(ctx, st.Key)
	if err != nil {
		t.Fatal(err)
	}
	env, err := store.Decode(raw)
	if err != nil {
		t.Fatalf("fetched envelope does not decode: %v", err)
	}
	if env.Key != st.Key {
		t.Fatalf("envelope key %s, want %s", env.Key, st.Key)
	}
	if _, err := env.Value(); err != nil {
		t.Fatalf("envelope payload does not decode: %v", err)
	}

	var apiErr *mapsim.APIError
	unknown := "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	if _, err := c.StoreFetch(ctx, unknown); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown key: %v, want 404 APIError", err)
	}
	if _, err := c.StoreFetch(ctx, "nope"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad key: %v, want 400 APIError", err)
	}
}

// TestSweepProgressReconnects drops the NDJSON watch connection hard
// after its first status line; the client must reconnect on its own,
// keep the observed done-counts monotonic across the break, and still
// deliver the terminal status — the crash-safe watch contract.
func TestSweepProgressReconnects(t *testing.T) {
	c, _ := startDaemon(t)
	daemonURL, err := url.Parse(c.BaseURL)
	if err != nil {
		t.Fatal(err)
	}
	passthrough := httputil.NewSingleHostReverseProxy(daemonURL)

	var dropped atomic.Bool
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("watch") == "1" && !dropped.Swap(true) {
			// Relay exactly one stream line, then kill the connection
			// mid-stream — the shape of a daemon restart.
			resp, err := http.Get(c.BaseURL + r.URL.Path + "?watch=1")
			if err != nil {
				t.Errorf("proxy watch: %v", err)
				panic(http.ErrAbortHandler)
			}
			defer resp.Body.Close()
			w.Header().Set("Content-Type", "application/x-ndjson")
			line := make([]byte, 1)
			for {
				if _, err := resp.Body.Read(line); err != nil {
					break
				}
				w.Write(line)
				if line[0] == '\n' {
					break
				}
			}
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}
		passthrough.ServeHTTP(w, r)
	}))
	defer proxy.Close()

	flaky := mapsim.NewClient(proxy.URL)
	flaky.RetryBase = time.Millisecond
	flaky.MaxRetries = 10
	flaky.PollInterval = 5 * time.Millisecond

	ctx := context.Background()
	st, err := flaky.Sweep(ctx, mapsim.SweepRequest{
		Base: mapsim.ConfigSpec{Instructions: 5_000_000, Speculation: true},
		Axes: mapsim.SweepAxes{
			Benchmarks: []string{"fft"},
			Meta:       mapsim.SweepIntAxis{Points: []mapsim.ByteSize{16 << 10, 32 << 10, 64 << 10, 128 << 10}},
		},
	})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}

	lastDone := -1
	res, err := flaky.ResumeSweep(ctx, st.ID, func(cur mapsim.SweepStatus) {
		if cur.Done < lastDone {
			t.Errorf("Done went backwards across reconnect: %d then %d", lastDone, cur.Done)
		}
		lastDone = cur.Done
	})
	if err != nil {
		t.Fatalf("ResumeSweep through dropping proxy: %v", err)
	}
	if len(res.Points) != st.Total || lastDone != st.Total {
		t.Fatalf("result %d points, last Done %d, want %d", len(res.Points), lastDone, st.Total)
	}
	if !dropped.Load() {
		t.Fatal("proxy never dropped the watch stream")
	}
	if flaky.Retries() == 0 {
		t.Error("client reports zero retries after a dropped watch stream")
	}
}
