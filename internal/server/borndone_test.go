package server

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/maps-sim/mapsim/internal/jobs"
	"github.com/maps-sim/mapsim/internal/sweep"
)

// walFiles lists the journal files in dir's journal directory.
func walFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".wal") {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestSweepBornDone: resubmitting a finished sweep the store answers
// whole is done in the 202 reply itself — no journal file, no pool job
// — and its result matches the cold sweep's.
func TestSweepBornDone(t *testing.T) {
	dir := t.TempDir()
	s, ts, jd, _ := newJournalServer(t, dir, 2)
	cold, _ := postSweep(t, ts, sweepBody)
	if final := waitSweepDone(t, ts, cold.ID); final.State != jobs.StateDone || final.Deduped != 0 {
		t.Fatalf("cold sweep: %+v", final)
	}
	var coldRes sweep.Result
	getJSON(t, ts, "/v1/sweeps/"+cold.ID+"/result", &coldRes)
	wals, submitted, appends := walFiles(t, dir), s.PoolStats().Submitted, jd.Stats().Appends

	st, resp := postSweep(t, ts, sweepBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %d", resp.StatusCode)
	}
	if st.State != jobs.StateDone || st.Done != st.Total || st.Deduped != st.Total || st.Total != cold.Total {
		t.Fatalf("resubmit reply = %+v, want done with done = deduped = total = %d", st, cold.Total)
	}
	if st.ID == cold.ID || st.Finished.IsZero() {
		t.Fatalf("resubmit reply = %+v: want a fresh ID and a finish time", st)
	}
	if got := walFiles(t, dir); len(got) != len(wals) {
		t.Fatalf("journal files %v after the resubmit, want %v", got, wals)
	}
	if got := jd.Stats().Appends; got != appends {
		t.Fatalf("journal appends %d -> %d across a stored resubmit", appends, got)
	}
	if got := s.PoolStats().Submitted; got != submitted {
		t.Fatalf("pool jobs %d -> %d across a stored resubmit", submitted, got)
	}
	var res sweep.Result
	if resp := getJSON(t, ts, "/v1/sweeps/"+st.ID+"/result", &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d", resp.StatusCode)
	}
	if res.Deduped != res.Total || res.Done != res.Total {
		t.Fatalf("result counts done=%d deduped=%d total=%d", res.Done, res.Deduped, res.Total)
	}
	if got, want := sanitizeResult(t, &res), sanitizeResult(t, &coldRes); string(got) != string(want) {
		t.Fatalf("born-done result differs from the cold sweep's:\n got %s\nwant %s", got, want)
	}
	ss := s.SweepStatsSnapshot()
	want := SweepStats{Started: 2, PointsPlanned: 8, PointsDone: 8, PointsDeduped: 4}
	if ss != want {
		t.Fatalf("sweep counters %+v, want %+v", ss, want)
	}
}

// TestSweepHalfStoredLooksUpOnce: a sweep the store answers only in
// part journals its admission, simulates only the misses, and looks
// every point up exactly once between the submit handler and the
// coordinator.
func TestSweepHalfStoredLooksUpOnce(t *testing.T) {
	dir := t.TempDir()
	s, ts, _, _ := newJournalServer(t, dir, 2)
	half := strings.Replace(sweepBody, `"points": ["16KB", "64KB"]`, `"points": ["16KB"]`, 1)
	first, _ := postSweep(t, ts, half)
	if final := waitSweepDone(t, ts, first.ID); final.State != jobs.StateDone || final.Total != 2 {
		t.Fatalf("first sweep: %+v", final)
	}
	before, submitted := s.StoreStats(), s.PoolStats().Submitted

	st, _ := postSweep(t, ts, sweepBody)
	final := waitSweepDone(t, ts, st.ID)
	if final.State != jobs.StateDone || final.Done != 4 || final.Deduped != 2 {
		t.Fatalf("half-stored sweep: %+v, want 4 done, 2 deduped", final)
	}
	if _, err := os.Stat(filepath.Join(dir, "journal", st.ID+".wal")); err != nil {
		t.Fatalf("half-stored sweep wrote no journal: %v", err)
	}
	if got := s.PoolStats().Submitted - submitted; got != 2 {
		t.Fatalf("simulated %d points, want the 2 misses", got)
	}
	after := s.StoreStats()
	lookups := (after.MemHits + after.DiskHits + after.Misses) - (before.MemHits + before.DiskHits + before.Misses)
	if lookups != uint64(final.Total) {
		t.Fatalf("%d store lookups for %d points, want one each", lookups, final.Total)
	}
}

// TestSweepNoCacheNeverBornDone: a no_cache resubmit of a stored grid
// skips the store, so it journals its admission and simulates every
// point.
func TestSweepNoCacheNeverBornDone(t *testing.T) {
	dir := t.TempDir()
	s, ts, _, _ := newJournalServer(t, dir, 2)
	cold, _ := postSweep(t, ts, sweepBody)
	waitSweepDone(t, ts, cold.ID)
	submitted := s.PoolStats().Submitted

	noCache := strings.Replace(sweepBody, `"axes"`, `"no_cache": true, "axes"`, 1)
	st, resp := postSweep(t, ts, noCache)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	final := waitSweepDone(t, ts, st.ID)
	if final.State != jobs.StateDone || final.Deduped != 0 || final.Done != final.Total {
		t.Fatalf("no_cache sweep: %+v", final)
	}
	if got := s.PoolStats().Submitted - submitted; got != uint64(final.Total) {
		t.Fatalf("simulated %d points, want all %d", got, final.Total)
	}
	if _, err := os.Stat(filepath.Join(dir, "journal", st.ID+".wal")); err != nil {
		t.Fatalf("no_cache sweep wrote no journal: %v", err)
	}
}

// TestSweepBornDoneRestart: a born-done sweep leaves nothing for the
// next start to recover or quarantine.
func TestSweepBornDoneRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts1, _, shutdown1 := newJournalServer(t, dir, 2)
	cold, _ := postSweep(t, ts1, sweepBody)
	waitSweepDone(t, ts1, cold.ID)
	st, _ := postSweep(t, ts1, sweepBody)
	if st.State != jobs.StateDone {
		t.Fatalf("resubmit not born done: %+v", st)
	}
	shutdown1()

	s2, ts2, jd2, _ := newJournalServer(t, dir, 2)
	if got := s2.SweepsRecovered(); got != 0 {
		t.Fatalf("SweepsRecovered = %d, want 0", got)
	}
	if js := jd2.Stats(); js.Quarantined != 0 {
		t.Fatalf("journal stats after restart %+v, want nothing quarantined", js)
	}
	if got := walFiles(t, dir); len(got) != 0 {
		t.Fatalf("journal files %v left after recovery, want none", got)
	}
	resp, err := http.Get(ts2.URL + "/v1/sweeps/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("born-done sweep answered %d after restart, want 404", resp.StatusCode)
	}
}
