package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/maps-sim/mapsim/internal/jobs"
	"github.com/maps-sim/mapsim/internal/sweep"
)

// sweepBody is a miniature fig1 grid: 1 benchmark × 2 meta sizes × 2
// content policies, cheap enough for tests.
const sweepBody = `{
	"base": {"instructions": 20000, "speculation": true},
	"axes": {
		"benchmarks": ["fft"],
		"meta": {"points": ["16KB", "64KB"]},
		"contents": ["counters", "all"]
	}
}`

func postSweep(t *testing.T, ts *httptest.Server, body string) (SweepStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	var st SweepStatus
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
			t.Fatalf("decode %q: %v", buf.String(), err)
		}
	}
	return st, resp
}

func waitSweepDone(t *testing.T, ts *httptest.Server, id string) SweepStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st SweepStatus
		getJSON(t, ts, "/v1/sweeps/"+id, &st)
		if st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("sweep %s did not finish", id)
	return SweepStatus{}
}

// TestSweepEndToEndWithDedupe is the acceptance check from the sweep
// issue: the same spec POSTed twice reports >0 deduped points the
// second time, served from the shared results cache.
func TestSweepEndToEndWithDedupe(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 16, CacheEntries: 64})

	st, resp := postSweep(t, ts, sweepBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if st.Total != 4 {
		t.Fatalf("total %d, want 4", st.Total)
	}
	st = waitSweepDone(t, ts, st.ID)
	if st.State != jobs.StateDone || st.Done != 4 || st.Deduped != 0 {
		t.Fatalf("first sweep: %+v", st)
	}

	var res sweep.Result
	if resp := getJSON(t, ts, "/v1/sweeps/"+st.ID+"/result", &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d", resp.StatusCode)
	}
	if len(res.Points) != 4 || res.Points[0].Result == nil {
		t.Fatalf("result shape: %d points", len(res.Points))
	}

	st2, _ := postSweep(t, ts, sweepBody)
	st2 = waitSweepDone(t, ts, st2.ID)
	if st2.State != jobs.StateDone || st2.Deduped == 0 {
		t.Fatalf("second sweep not deduped: %+v", st2)
	}

	if stats := s.SweepStatsSnapshot(); stats.Started != 2 || stats.PointsDeduped == 0 {
		t.Fatalf("sweep stats: %+v", stats)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	metrics := buf.String()
	for _, want := range []string{
		"mapsd_sweeps_started_total 2",
		"mapsd_sweep_points_planned_total 8",
		"mapsd_sweep_points_deduped_total 4",
		"mapsd_sweeps_running 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// The watch=1 stream must deliver monotonically non-decreasing Done
// counts ending in a terminal state, as newline-delimited JSON.
func TestSweepWatchStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 16, CacheEntries: 16})
	st, _ := postSweep(t, ts, sweepBody)

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var last SweepStatus
	lastDone := -1
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if last.Done < lastDone {
			t.Fatalf("Done went backwards: %d then %d", lastDone, last.Done)
		}
		lastDone = last.Done
	}
	if !last.State.Terminal() || last.State != jobs.StateDone || last.Done != last.Total {
		t.Fatalf("stream did not end terminal: %+v", last)
	}
}

func TestSweepBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CacheEntries: 4})
	cases := map[string]string{
		"unknown field":  `{"base": {}, "axes": {}, "bogus": 1}`,
		"unknown bench":  `{"base": {"instructions": 1000}, "axes": {"benchmarks": ["quake4"]}}`,
		"no benchmark":   `{"base": {"instructions": 1000}, "axes": {}}`,
		"axis w/o meta":  `{"base": {"instructions": 1000}, "axes": {"benchmarks": ["fft"], "policies": ["lru"]}}`,
		"unknown policy": `{"base": {"instructions": 1000}, "axes": {"benchmarks": ["fft"], "meta": {"points": ["64KB"]}, "policies": ["mru"]}}`,
		"inverted range": `{"base": {"instructions": 1000}, "axes": {"benchmarks": ["fft"], "meta": {"min": "64KB", "max": "16KB"}}}`,
	}
	for name, body := range cases {
		if _, resp := postSweep(t, ts, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: got %d, want 400", name, resp.StatusCode)
		}
	}

	// A grid above maxSweepPoints is rejected before anything runs.
	points := make([]string, 0, maxSweepPoints+1)
	for i := 0; i <= maxSweepPoints; i++ {
		points = append(points, `"16KB"`)
	}
	big := fmt.Sprintf(`{"base": {"instructions": 1000}, "axes": {"benchmarks": ["fft"], "meta": {"points": [%s]}}}`,
		strings.Join(points, ","))
	if _, resp := postSweep(t, ts, big); resp.StatusCode != http.StatusRequestEntityTooLarge &&
		resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized grid: got %d, want 400 or 413", resp.StatusCode)
	}
}

// TestSweepBasePolicyRejected: a sweep base naming a replacement
// policy or partition is refused, as sweep.Spec.Expand refuses a base
// carrying an instance, instead of running (and keying) the default
// in its place.
func TestSweepBasePolicyRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CacheEntries: 4})
	for _, meta := range []string{`"policy": "eva"`, `"partition": "static:2"`} {
		body := `{"base": {"instructions": 1000, "meta": {"size": "64KB", ` + meta + `}}, "axes": {"benchmarks": ["fft"]}}`
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "axes") {
			t.Errorf("base meta {%s}: got %d %q, want 400 naming the axes", meta, resp.StatusCode, e.Error)
		}
	}
}

func TestSweepCancelMidRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheEntries: 8})
	// One worker and several slow points keep the sweep running long
	// enough to cancel deterministically.
	body := `{
		"base": {"instructions": 3000000, "speculation": true},
		"axes": {"benchmarks": ["fft"], "meta": {"points": ["16KB", "32KB", "64KB", "128KB"]}}
	}`
	st, _ := postSweep(t, ts, body)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !got.State.Terminal() {
		t.Fatalf("cancel returned non-terminal state %s", got.State)
	}
	if got.State == jobs.StateDone && got.Done != got.Total {
		t.Fatalf("done sweep with %d/%d points", got.Done, got.Total)
	}

	// The result endpoint answers 409 for a canceled sweep.
	if got.State == jobs.StateCanceled {
		r2, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != http.StatusConflict {
			t.Fatalf("result of canceled sweep: %d, want 409", r2.StatusCode)
		}
	}
}

func TestSweepNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CacheEntries: 4})
	for _, path := range []string{"/v1/sweeps/s-99999999", "/v1/sweeps/s-99999999/result"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: got %d, want 404", path, resp.StatusCode)
		}
	}
}
