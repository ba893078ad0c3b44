package server

import (
	"slices"
	"testing"
	"time"
)

// evictionOrder returns the IDs evictSweeps evicts from a registry
// over its cap by over, indexed by walking it: the two steps of
// evictSweeps that TestEvictionOrderMatchesSort holds to sorting.
func evictionOrder(sweeps map[string]*sweepJob, over int, expired func(time.Time) bool) []string {
	ids, _ := evictFront(finishOrder(sweeps), over, expired)
	return ids
}

// TestFinishIndexTracksRegistry: on a live server, with sweeps born
// done, simulated and evicted, the finish index always lists exactly
// the registry's terminal sweeps in finish order, and with the running
// count adds up to the registry, so eviction never walks it.
func TestFinishIndexTracksRegistry(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, CacheEntries: 64, MaxSweeps: 3})
	check := func(when string) {
		t.Helper()
		s.mu.Lock()
		defer s.mu.Unlock()
		if len(s.finished)+s.running != len(s.sweeps) {
			t.Fatalf("%s: %d indexed + %d running, registry %d", when, len(s.finished), s.running, len(s.sweeps))
		}
		want := finishOrder(s.sweeps)
		if !slices.Equal(s.finished, want) {
			t.Fatalf("%s: index %v, want %v", when, s.finished, want)
		}
	}
	for i := 0; i < 8; i++ {
		st, _ := postSweep(t, ts, seededSweepBody(i%3))
		check("after submit")
		waitSweepDone(t, ts, st.ID)
		check("after finish")
	}
	// Each submission evicts down to the cap before it registers.
	if got := s.SweepsEvicted(); got != 4 {
		t.Fatalf("evicted %d sweeps, want 4", got)
	}
}
