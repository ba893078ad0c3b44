package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/maps-sim/mapsim/internal/jobs"
	"github.com/maps-sim/mapsim/internal/sweep"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (JobStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	var st JobStatus
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
			t.Fatalf("decode %q: %v", buf.String(), err)
		}
	}
	return st, resp
}

func waitDone(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		getJSON(t, ts, "/v1/jobs/"+id, &st)
		if st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

const smallRun = `{"type":"run","config":{"benchmark":"libquantum","instructions":50000,"meta":{"size":"64KB"}}}`

func TestSubmitStatusResultHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	st, resp := postJob(t, ts, smallRun)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	if st.ID == "" || st.Key == "" || st.CacheHit {
		t.Fatalf("bad submit response: %+v", st)
	}
	final := waitDone(t, ts, st.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("state %s (%s), want done", final.State, final.Error)
	}
	var res JobResult
	if resp := getJSON(t, ts, "/v1/jobs/"+st.ID+"/result", &res); resp.StatusCode != 200 {
		t.Fatalf("result status %d", resp.StatusCode)
	}
	if res.Type != TypeRun || res.Run == nil {
		t.Fatalf("bad result envelope: %+v", res)
	}
	if res.Run.Benchmark != "libquantum" || res.Run.Instructions == 0 || res.Run.MetaHitRate <= 0 {
		t.Fatalf("implausible simulation result: %+v", res.Run)
	}
}

// TestResponsesAreCompact: API replies are single-line JSON — the
// encoding cost of indentation buys nothing a client decodes.
func TestResponsesAreCompact(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	job, _ := postJob(t, ts, smallRun)
	waitDone(t, ts, job.ID)
	sw, _ := postSweep(t, ts, sweepBody)
	waitSweepDone(t, ts, sw.ID)
	for _, path := range []string{"/v1/jobs/" + job.ID, "/v1/sweeps/" + sw.ID + "/result"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d, %v", path, resp.StatusCode, err)
		}
		if n := bytes.Count(body, []byte("\n")); n != 1 || body[len(body)-1] != '\n' {
			t.Fatalf("GET %s: body spans %d lines, want 1:\n%s", path, n, body)
		}
	}
}

func TestMalformedRequests400(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []string{
		`{not json`,
		`{"type":"warp","config":{"benchmark":"fft"}}`,                      // unknown type
		`{"config":{"benchmark":"no-such-bench"}}`,                          // unknown benchmark
		`{"config":{"benchmark":"fft","org":"tdx"}}`,                        // unknown org
		`{"config":{"benchmark":"fft","meta":{"size":"64 parsecs"}}}`,       // bad size
		`{"config":{"benchmark":"fft","meta":{"size":0}}}`,                  // non-positive size
		`{"config":{"benchmark":"fft","meta":{"size":1024,"content":"x"}}}`, // bad content policy
		`{"config":{"benchmark":"fft"},"benchmarks":["fft"]}`,               // benchmarks on a run job
		`{"type":"suite","config":{},"benchmarks":["fft","no-such-bench"]}`, // bad suite list
		`{"config":{"benchmark":"fft"},"surprise":true}`,                    // unknown field
	}
	for _, body := range cases {
		if _, resp := postJob(t, ts, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestJobNotFound404(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if resp := getJSON(t, ts, "/v1/jobs/j-99999999", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, ts, "/v1/jobs/j-99999999/result", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("result status %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/j-99999999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel status %d, want 404", resp.StatusCode)
	}
}

func TestCancelMidRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// Big enough to still be running when the DELETE lands.
	st, _ := postJob(t, ts, `{"type":"run","config":{"benchmark":"libquantum","instructions":2000000000}}`)
	// Wait for it to leave the queue.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var cur JobStatus
		getJSON(t, ts, "/v1/jobs/"+st.ID, &cur)
		if cur.State == jobs.StateRunning || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	final := waitDone(t, ts, st.ID)
	if final.State != jobs.StateCanceled {
		t.Fatalf("state %s, want canceled", final.State)
	}
	// The result endpoint reports the cancellation, not a result.
	if resp := getJSON(t, ts, "/v1/jobs/"+st.ID+"/result", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("result status %d, want 409", resp.StatusCode)
	}
}

func TestResultBeforeDone409(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	st, _ := postJob(t, ts, `{"type":"run","config":{"benchmark":"libquantum","instructions":2000000000}}`)
	defer func() {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
		resp, _ := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
	}()
	if resp := getJSON(t, ts, "/v1/jobs/"+st.ID+"/result", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d, want 409 while running", resp.StatusCode)
	}
}

// The acceptance-criterion test: a second identical POST must be
// served from the cache — hit counter incremented, job born done —
// without re-running the simulator.
func TestIdenticalPostServedFromCache(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})

	first, resp := postJob(t, ts, smallRun)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first post: status %d", resp.StatusCode)
	}
	waitDone(t, ts, first.ID)
	before := s.CacheStats()

	t0 := time.Now()
	second, resp := postJob(t, ts, smallRun)
	latency := time.Since(t0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second post: status %d, want 200 (cache hit)", resp.StatusCode)
	}
	if !second.CacheHit {
		t.Fatal("second identical POST not marked cache_hit")
	}
	if second.State != jobs.StateDone {
		t.Fatalf("cache-hit job state %s, want done at birth", second.State)
	}
	if second.Key != first.Key {
		t.Fatalf("content address changed between identical posts: %s vs %s", second.Key, first.Key)
	}
	after := s.CacheStats()
	if after.Hits != before.Hits+1 {
		t.Fatalf("cache hits %d → %d, want +1", before.Hits, after.Hits)
	}
	// A 50k-instruction simulation takes tens of milliseconds; a
	// cache hit is a map lookup. The generous bound still separates
	// them by an order of magnitude.
	if latency > 2*time.Second {
		t.Fatalf("cache-hit submit took %v; it must not re-simulate", latency)
	}
	// And its result is immediately fetchable and identical.
	var res JobResult
	getJSON(t, ts, "/v1/jobs/"+second.ID+"/result", &res)
	if res.Run == nil || res.Run.Benchmark != "libquantum" {
		t.Fatalf("cached result: %+v", res)
	}

	// A differently-spelled but canonically identical config also
	// hits: explicit defaults hash the same as omitted ones.
	respelled := `{"type":"run","config":{"benchmark":"libquantum","instructions":50000,"seed":1,"meta":{"size":65536,"ways":8}}}`
	third, _ := postJob(t, ts, respelled)
	if !third.CacheHit {
		t.Fatal("canonically identical config missed the cache")
	}

	// no_cache forces a re-run.
	fourth, resp := postJob(t, ts, `{"type":"run","no_cache":true,"config":{"benchmark":"libquantum","instructions":50000,"meta":{"size":"64KB"}}}`)
	if resp.StatusCode != http.StatusAccepted || fourth.CacheHit {
		t.Fatalf("no_cache must bypass the lookup: %d %+v", resp.StatusCode, fourth)
	}
	waitDone(t, ts, fourth.ID)
}

// TestRunJobPolicyKeys: a run job's policy name is part of its content
// address — fifo keys apart from the pseudo-LRU default and runs as
// fifo — while an explicit "plru" keys with the default it names.
func TestRunJobPolicyKeys(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	run := func(policy string) (JobStatus, *JobResult) {
		t.Helper()
		st, resp := postJob(t, ts, `{"config":{"benchmark":"canneal","instructions":50000,"meta":{"size":"16KB","policy":"`+policy+`"}}}`)
		if resp.StatusCode >= 300 {
			t.Fatalf("policy %q: status %d", policy, resp.StatusCode)
		}
		waitDone(t, ts, st.ID)
		var res JobResult
		getJSON(t, ts, "/v1/jobs/"+st.ID+"/result", &res)
		if res.Run == nil {
			t.Fatalf("policy %q: no run result", policy)
		}
		return st, &res
	}
	def, defRes := run("")
	plru, _ := run("plru")
	fifo, fifoRes := run("fifo")
	if plru.Key != def.Key {
		t.Errorf("explicit plru keyed %s, the default %s", plru.Key, def.Key)
	}
	if fifo.Key == def.Key {
		t.Fatal("fifo keyed with the plru default")
	}
	if fifoRes.Run.MetaMPKI == defRes.Run.MetaMPKI {
		t.Errorf("fifo and plru both simulated meta MPKI %v", defRes.Run.MetaMPKI)
	}
}

// TestSuiteEndToEnd: a suite is a sweep over the benchmark axis, and
// its result reduces to the suite report. Resubmitted, the suite is a
// born-done sweep: the store answers every benchmark's run.
func TestSuiteEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	body := `{"base":{"instructions":30000},"axes":{"benchmarks":["libquantum","fft"]},"parallelism":2}`
	st, resp := postSweep(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d", resp.StatusCode)
	}
	final := waitSweepDone(t, ts, st.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("state %s (%s)", final.State, final.Error)
	}
	var res sweep.Result
	getJSON(t, ts, "/v1/sweeps/"+st.ID+"/result", &res)
	suite := res.Suite()
	if !slices.Equal(suite.Order, []string{"libquantum", "fft"}) {
		t.Fatalf("bad suite order: %v", suite.Order)
	}
	if len(suite.PerBench) != 2 || suite.GeomeanIPC <= 0 {
		t.Fatalf("bad suite result: %+v", suite)
	}
	// Its runs count toward the daemon's simulation metrics.
	s.phaseMu.Lock()
	runs := s.phaseRuns
	s.phaseMu.Unlock()
	want := suite.PerBench["libquantum"].Instructions + suite.PerBench["fft"].Instructions
	if got := s.instrTotal.Load(); got != want || runs != 2 {
		t.Fatalf("simulated instructions %d over %d runs, want %d over 2", got, runs, want)
	}
	// Second identical suite POST is a store hit, done at submit.
	again, resp := postSweep(t, ts, body)
	if resp.StatusCode != http.StatusAccepted || again.State != jobs.StateDone || again.Deduped != 2 {
		t.Fatalf("suite re-post: %d %+v", resp.StatusCode, again)
	}
	if s.CacheStats().Hits == 0 {
		t.Fatal("suite cache hit not counted")
	}
}

// A job runs one config; a job of any other type, such as the suite
// jobs older clients sent, is refused with a pointer to the sweep
// endpoint that runs suites now.
func TestNonRunJobPointsToSweeps(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"type":"suite","config":{"instructions":30000}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "/v1/sweeps") {
		t.Fatalf("suite job: %d %q, want 400 naming /v1/sweeps", resp.StatusCode, e.Error)
	}
}

func TestListEndpointsAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var benches map[string][]string
	getJSON(t, ts, "/v1/benchmarks", &benches)
	if len(benches["benchmarks"]) == 0 || len(benches["memory_intensive"]) == 0 {
		t.Fatalf("benchmarks: %+v", benches)
	}
	var exps map[string][]string
	getJSON(t, ts, "/v1/experiments", &exps)
	if len(exps["experiments"]) < 15 {
		t.Fatalf("experiments: %+v", exps)
	}

	st, _ := postJob(t, ts, smallRun)
	waitDone(t, ts, st.ID)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, want := range []string{
		"mapsd_jobs_completed_total 1",
		"mapsd_cache_misses_total 1",
		"mapsd_cache_entries 1",
		"mapsd_simulated_instructions_total",
		"mapsd_simulated_instructions_per_second",
		"mapsd_workers 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	// Throughput must be non-zero after a completed job.
	var ips float64
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "mapsd_simulated_instructions_per_second ") {
			fmt.Sscanf(line, "mapsd_simulated_instructions_per_second %g", &ips)
		}
	}
	if ips <= 0 {
		t.Errorf("instructions/sec %v, want > 0", ips)
	}
}

func TestQueueFullShed429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	long := `{"type":"run","config":{"benchmark":"libquantum","instructions":2000000000}}`
	first, _ := postJob(t, ts, long)
	defer func() {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+first.ID, nil)
		resp, _ := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
	}()
	// Wait until the first job occupies the worker, then fill the
	// queue slot and overflow it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var cur JobStatus
		getJSON(t, ts, "/v1/jobs/"+first.ID, &cur)
		if cur.State == jobs.StateRunning || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	second, resp := postJob(t, ts, `{"type":"run","no_cache":true,"config":{"benchmark":"fft","instructions":2000000000}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second: %d", resp.StatusCode)
	}
	defer func() {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+second.ID, nil)
		r, _ := http.DefaultClient.Do(req)
		if r != nil {
			r.Body.Close()
		}
	}()
	// Worker busy, queue slot full: the third submission is shed with
	// 429 + Retry-After, and the shed counter accounts it.
	_, resp = postJob(t, ts, `{"type":"run","no_cache":true,"config":{"benchmark":"canneal","instructions":2000000000}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	if got := s.ShedCount(); got != 1 {
		t.Errorf("shed count %d, want 1", got)
	}
	// Saturated queue flips readiness (while /healthz stays 200).
	if resp := getJSON(t, ts, "/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while saturated: %d, want 503", resp.StatusCode)
	}
	if resp := getJSON(t, ts, "/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz while saturated: %d, want 200", resp.StatusCode)
	}
}

// The readiness probe: ready when idle, 503 once draining begins,
// while liveness stays green throughout.
func TestReadyzDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	if resp := getJSON(t, ts, "/readyz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz idle: %d, want 200", resp.StatusCode)
	}
	s.MarkDraining()
	resp := getJSON(t, ts, "/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz draining: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining readyz missing Retry-After")
	}
	if resp := getJSON(t, ts, "/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz draining: %d, want 200", resp.StatusCode)
	}
}

// Submissions after the pool starts draining surface as 503.
func TestSubmitWhileDraining503(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	_, resp := postJob(t, ts, smallRun)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit on drained pool: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining submit missing Retry-After")
	}
}

// The satellite table: every server error path answers with the right
// status and a JSON error body, including the body-size cap and the
// cancel edge cases.
func TestServerErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 4096})

	t.Run("malformed-json", func(t *testing.T) {
		for _, body := range []string{`{not json`, `[]`, `"run"`} {
			_, resp := postJob(t, ts, body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("body %q: %d, want 400", body, resp.StatusCode)
			}
		}
	})

	t.Run("oversized-body-413", func(t *testing.T) {
		huge := `{"config":{"benchmark":"` + strings.Repeat("x", 8192) + `"}}`
		_, resp := postJob(t, ts, huge)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized body: %d, want 413", resp.StatusCode)
		}
	})

	t.Run("cancel-unknown-job-404", func(t *testing.T) {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/j-00424242", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("cancel unknown: %d, want 404", resp.StatusCode)
		}
	})

	t.Run("double-cancel-idempotent", func(t *testing.T) {
		st, _ := postJob(t, ts, `{"type":"run","config":{"benchmark":"libquantum","instructions":2000000000}}`)
		for i := 0; i < 2; i++ {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("cancel #%d: %d, want 200 (cancel is idempotent)", i+1, resp.StatusCode)
			}
		}
		final := waitDone(t, ts, st.ID)
		if final.State != jobs.StateCanceled {
			t.Errorf("state %s after double cancel, want canceled", final.State)
		}
	})
}
