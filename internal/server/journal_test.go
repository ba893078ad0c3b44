package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/maps-sim/mapsim/internal/faults"
	"github.com/maps-sim/mapsim/internal/jobs"
	"github.com/maps-sim/mapsim/internal/journal"
	"github.com/maps-sim/mapsim/internal/results"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/store"
	"github.com/maps-sim/mapsim/internal/sweep"
)

// newJournalServer starts a "daemon" whose sweep journal and result
// store both live under dir, returning an explicit shutdown func so a
// test can stop one instance and start the next against the same
// directories — the in-process restart.
func newJournalServer(t *testing.T, dir string, workers int) (*Server, *httptest.Server, *journal.Dir, func()) {
	t.Helper()
	jd, err := journal.Open(journal.Options{Dir: filepath.Join(dir, "journal")})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Options{
		Memory: results.New(64),
		Dir:    filepath.Join(dir, "store"),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: workers, QueueDepth: 16, Store: st, Journal: jd})
	ts := httptest.NewServer(s.Handler())
	done := false
	shutdown := func() {
		if done {
			return
		}
		done = true
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}
	t.Cleanup(shutdown)
	return s, ts, jd, shutdown
}

// sanitizeResult strips the run-dependent fields (wall time, worker
// attribution, cache provenance, phase timing) so two runs of the same
// sweep can be compared byte for byte.
func sanitizeResult(t *testing.T, res *sweep.Result) []byte {
	t.Helper()
	cp := *res
	cp.Wall = 0
	cp.Deduped = 0
	cp.Points = append([]sweep.PointResult(nil), res.Points...)
	for i := range cp.Points {
		cp.Points[i].Worker = ""
		cp.Points[i].Cached = false
		if cp.Points[i].Result != nil {
			r := *cp.Points[i].Result
			r.Timing = sim.PhaseTiming{}
			cp.Points[i].Result = &r
		}
	}
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// seededSweepBody is sweepBody with its base seed set, so each seed
// names a grid of points no other seed shares in the store.
func seededSweepBody(seed int) string {
	return strings.Replace(sweepBody, `"instructions": 20000`,
		fmt.Sprintf(`"instructions": 20000, "seed": %d`, seed), 1)
}

// TestSweepRestartResume is the in-process restart drill: stop a
// daemon mid-sweep (graceful shutdown closes the journal without a
// terminal record), start a second one over the same journal and store
// directories, and the sweep resumes under its original ID, serves the
// already-finished points from the store without re-simulating them,
// and produces a result byte-identical to an uninterrupted run.
func TestSweepRestartResume(t *testing.T) {
	dir := t.TempDir()
	_, ts1, _, shutdown1 := newJournalServer(t, dir, 1)

	// One worker and several multi-million-instruction points keep the
	// sweep running long enough to interrupt deterministically.
	body := `{
		"base": {"instructions": 8000000, "speculation": true},
		"axes": {"benchmarks": ["fft"], "meta": {"points": ["16KB", "32KB", "64KB", "128KB"]}}
	}`
	st, resp := postSweep(t, ts1, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	id, total := st.ID, st.Total

	// Wait for at least one completed point, so the restart has
	// something to recover.
	deadline := time.Now().Add(30 * time.Second)
	var done1 int
	for time.Now().Before(deadline) {
		var cur SweepStatus
		getJSON(t, ts1, "/v1/sweeps/"+id, &cur)
		if done1 = cur.Done; done1 >= 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if done1 < 1 {
		t.Fatal("sweep made no progress before shutdown")
	}
	shutdown1()

	s2, ts2, jd2, _ := newJournalServer(t, dir, 2)
	if s2.SweepsRecovered() != 1 {
		t.Fatalf("SweepsRecovered = %d, want 1 (journal stats %+v)",
			s2.SweepsRecovered(), jd2.Stats())
	}
	// The sweep reattaches under its original ID.
	final := waitSweepDone(t, ts2, id)
	if final.State != jobs.StateDone || final.Done != total {
		t.Fatalf("recovered sweep: %+v", final)
	}
	// Every point the first daemon finished was served from the store,
	// not re-simulated: the second daemon's pool only saw the rest.
	if final.Deduped < done1 {
		t.Fatalf("Deduped = %d, want >= %d recovered points", final.Deduped, done1)
	}
	if got := s2.PoolStats().Submitted; got != uint64(total-final.Deduped) {
		t.Fatalf("restart daemon simulated %d points, want %d", got, total-final.Deduped)
	}
	var res sweep.Result
	if resp := getJSON(t, ts2, "/v1/sweeps/"+id+"/result", &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d", resp.StatusCode)
	}

	// Fresh IDs keep advancing past the recovered sweep.
	st2, _ := postSweep(t, ts2, sweepBody)
	if st2.ID == id {
		t.Fatalf("fresh sweep reused recovered ID %q", id)
	}

	// Byte-identity against an uninterrupted run on a fresh daemon.
	_, ts3, _, _ := newJournalServer(t, filepath.Join(t.TempDir(), "fresh"), 2)
	ref, _ := postSweep(t, ts3, body)
	refSt := waitSweepDone(t, ts3, ref.ID)
	if refSt.State != jobs.StateDone {
		t.Fatalf("reference sweep: %+v", refSt)
	}
	var refRes sweep.Result
	getJSON(t, ts3, "/v1/sweeps/"+ref.ID+"/result", &refRes)
	if got, want := sanitizeResult(t, &res), sanitizeResult(t, &refRes); string(got) != string(want) {
		t.Fatalf("recovered result differs from uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

// TestSweepIDsUniqueAcrossRestart: recovery removes a finished sweep's
// journal, so nothing durable remembers its ID; a restarted daemon must
// still never hand that ID to another sweep, or a client holding it
// would be served the other sweep's result.
func TestSweepIDsUniqueAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts1, _, shutdown1 := newJournalServer(t, dir, 2)
	old, _ := postSweep(t, ts1, sweepBody)
	if final := waitSweepDone(t, ts1, old.ID); final.State != jobs.StateDone {
		t.Fatalf("first sweep: %+v", final)
	}
	shutdown1()

	_, ts2, _, _ := newJournalServer(t, dir, 2)
	other := strings.Replace(sweepBody, `"benchmarks": ["fft"]`, `"benchmarks": ["lbm"]`, 1)
	st, resp := postSweep(t, ts2, other)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after restart: %d", resp.StatusCode)
	}
	if st.ID == old.ID {
		t.Fatalf("sweep after restart reused finished sweep's ID %q", old.ID)
	}
	waitSweepDone(t, ts2, st.ID)
	r, err := http.Get(ts2.URL + "/v1/sweeps/" + old.ID)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("finished sweep's old ID answered %d after restart, want 404", r.StatusCode)
	}
}

// TestSweepJournalSkipsStoredPoints: a cache-enabled sweep journals
// its admission and terminal status but no point records — on resume
// the coordinator looks every point up in the store anyway.
func TestSweepJournalSkipsStoredPoints(t *testing.T) {
	dir := t.TempDir()
	_, ts, jd, shutdown := newJournalServer(t, dir, 2)
	st, resp := postSweep(t, ts, sweepBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if final := waitSweepDone(t, ts, st.ID); final.State != jobs.StateDone {
		t.Fatalf("sweep: %+v", final)
	}
	// Shutdown waits for the sweep's terminal journal record.
	shutdown()
	sweeps, err := jd.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(sweeps) != 1 || sweeps[0].Admit.ID != st.ID {
		t.Fatalf("replayed %d journals, want only %s's", len(sweeps), st.ID)
	}
	sw := sweeps[0]
	if sw.Status == nil || sw.Status.State != string(jobs.StateDone) {
		t.Fatalf("terminal record = %+v, want done", sw.Status)
	}
	if len(sw.Points) != 0 {
		t.Fatalf("journal holds %d point records, want 0", len(sw.Points))
	}
}

// TestSweepRestartResumeNoCache is the restart drill for a no_cache
// sweep, which skips the store lookup: its journaled points are what
// make the resumed sweep serve them from the store rather than
// simulate them again.
func TestSweepRestartResumeNoCache(t *testing.T) {
	dir := t.TempDir()
	_, ts1, _, shutdown1 := newJournalServer(t, dir, 1)
	body := `{
		"base": {"instructions": 8000000, "speculation": true},
		"axes": {"benchmarks": ["fft"], "meta": {"points": ["16KB", "32KB", "64KB", "128KB"]}},
		"no_cache": true
	}`
	st, resp := postSweep(t, ts1, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	id, total := st.ID, st.Total
	deadline := time.Now().Add(30 * time.Second)
	var done1 int
	for done1 < 1 && time.Now().Before(deadline) {
		var cur SweepStatus
		getJSON(t, ts1, "/v1/sweeps/"+id, &cur)
		done1 = cur.Done
		time.Sleep(5 * time.Millisecond)
	}
	if done1 < 1 {
		t.Fatal("sweep made no progress before shutdown")
	}
	shutdown1()

	s2, ts2, _, _ := newJournalServer(t, dir, 2)
	if s2.SweepsRecovered() != 1 {
		t.Fatalf("SweepsRecovered = %d, want 1", s2.SweepsRecovered())
	}
	final := waitSweepDone(t, ts2, id)
	if final.State != jobs.StateDone || final.Done != total {
		t.Fatalf("recovered sweep: %+v", final)
	}
	if final.Deduped < done1 {
		t.Fatalf("Deduped = %d, want >= %d recovered points", final.Deduped, done1)
	}
	if got := s2.PoolStats().Submitted; got != uint64(total-final.Deduped) {
		t.Fatalf("restart daemon simulated %d points, want %d", got, total-final.Deduped)
	}
}

// TestSweepRecoveryQuarantinesDriftedGrid plants a journal whose
// admission no longer matches what its spec expands to; startup must
// quarantine it rather than resume against the wrong grid.
func TestSweepRecoveryQuarantinesDriftedGrid(t *testing.T) {
	dir := t.TempDir()
	jd, err := journal.Open(journal.Options{Dir: filepath.Join(dir, "journal")})
	if err != nil {
		t.Fatal(err)
	}
	w, err := jd.Create(journal.Admit{
		ID:       "s-00000042",
		Created:  time.Now().UTC(),
		Total:    999, // sweepBody expands to 4 points
		GridHash: "bogus",
		Spec:     json.RawMessage(sweepBody),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts, jd2, _ := newJournalServer(t, dir, 1)
	if jd2.Stats().Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", jd2.Stats().Quarantined)
	}
	resp, err := http.Get(ts.URL + "/v1/sweeps/s-00000042")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("drifted sweep answered %d, want 404", resp.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(dir, "journal", "quarantine", "s-00000042.wal")); err != nil {
		t.Fatalf("quarantined journal missing: %v", err)
	}
}

// TestSweepEviction covers both eviction triggers: the registry cap
// evicts the oldest finished sweeps, the TTL evicts expired ones, and
// either way the journal file goes too.
func TestSweepEviction(t *testing.T) {
	dir := t.TempDir()
	jd, err := journal.Open(journal.Options{Dir: filepath.Join(dir, "journal")})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 2, QueueDepth: 16, CacheEntries: 16,
		Journal: jd, MaxSweeps: 2, SweepTTL: -1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})

	// Distinct seeds keep every sweep cold: a resubmitted sweep the
	// store answers whole is born done and writes no journal.
	var ids []string
	for i := 0; i < 3; i++ {
		st, _ := postSweep(t, ts, seededSweepBody(i+1))
		waitSweepDone(t, ts, st.ID)
		ids = append(ids, st.ID)
	}
	// The scrape runs the eviction pass: 3 finished sweeps, cap 2.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := s.SweepsEvicted(); got != 1 {
		t.Fatalf("SweepsEvicted = %d, want 1", got)
	}
	r0, _ := http.Get(ts.URL + "/v1/sweeps/" + ids[0])
	r0.Body.Close()
	if r0.StatusCode != http.StatusNotFound {
		t.Fatalf("oldest sweep still answers %d, want 404", r0.StatusCode)
	}
	r1, _ := http.Get(ts.URL + "/v1/sweeps/" + ids[1])
	r1.Body.Close()
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("kept sweep answers %d, want 200", r1.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(dir, "journal", ids[0]+".wal")); !os.IsNotExist(err) {
		t.Fatalf("evicted sweep's journal still on disk (err=%v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "journal", ids[1]+".wal")); err != nil {
		t.Fatalf("kept sweep's journal missing: %v", err)
	}

	// TTL path: a server whose finished sweeps expire immediately.
	s2 := New(Config{Workers: 2, QueueDepth: 16, CacheEntries: 16,
		SweepTTL: time.Nanosecond})
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
	})
	st, _ := postSweep(t, ts2, sweepBody)
	waitSweepDone(t, ts2, st.ID)
	time.Sleep(5 * time.Millisecond)
	r, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if got := s2.SweepsEvicted(); got != 1 {
		t.Fatalf("TTL eviction: SweepsEvicted = %d, want 1", got)
	}
}

// TestSweepJournalAppendChaos arms the journal.append fault at full
// rate: every append drops, and the sweep must still run to completion
// — journal loss degrades recovery, never availability.
func TestSweepJournalAppendChaos(t *testing.T) {
	t.Cleanup(faults.Reset)
	if err := faults.P(journal.FaultAppend).Arm(faults.Injection{Mode: faults.ModeErr}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	_, ts, jd, _ := newJournalServer(t, dir, 2)
	st, resp := postSweep(t, ts, sweepBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	final := waitSweepDone(t, ts, st.ID)
	if final.State != jobs.StateDone || final.Done != final.Total {
		t.Fatalf("sweep under append faults: %+v", final)
	}
	if jd.Stats().DroppedAppends == 0 {
		t.Fatal("append fault armed but nothing dropped")
	}
}
