package server

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/maps-sim/mapsim/internal/jobs"
	"github.com/maps-sim/mapsim/internal/obs"
)

// evictionBySort is the registry-cap eviction as first written: sort
// every terminal sweep by finish time, then evict from the oldest
// while the registry is over its cap or the sweep has expired.
func evictionBySort(sweeps map[string]*sweepJob, over int, expired func(time.Time) bool) []string {
	type cand struct {
		id       string
		finished time.Time
	}
	var terminal []cand
	for id, j := range sweeps {
		if state, finished := j.finishState(); state.Terminal() {
			terminal = append(terminal, cand{id, finished})
		}
	}
	slices.SortFunc(terminal, func(a, b cand) int { return a.finished.Compare(b.finished) })
	var out []string
	for _, c := range terminal {
		if over <= 0 && !expired(c.finished) {
			break
		}
		over--
		out = append(out, c.id)
	}
	return out
}

// TestEvictionOrderMatchesSort: on a registry over its cap that mixes
// running, TTL-expired and finished sweeps (finish times shuffled
// against IDs), the one-pass selection evicts exactly the sweeps, in
// exactly the order, that sorting every terminal sweep did.
func TestEvictionOrderMatchesSort(t *testing.T) {
	now := time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)
	const ttl = time.Hour
	expired := func(f time.Time) bool { return now.Sub(f) > ttl }
	sweeps := map[string]*sweepJob{}
	states := []jobs.State{jobs.StateDone, jobs.StateRunning, jobs.StateFailed, jobs.StateDone, jobs.StateCanceled}
	for i := 0; i < 60; i++ {
		// 17 is coprime to 60, so finish order is a shuffle of ID order;
		// ages run to 70.8 minutes, the oldest past the TTL.
		age := time.Duration((i*17)%60) * 6 * time.Minute / 5
		j := &sweepJob{id: fmt.Sprintf("s-%02d", i)}
		j.status.State = states[i%len(states)]
		if j.status.State.Terminal() {
			j.status.Finished = now.Add(-age)
		}
		sweeps[j.id] = j
	}
	if n := len(evictionBySort(sweeps, 1, expired)); n < 4 {
		t.Fatalf("only %d sweeps evicted at over 1: the registry needs expired ones", n)
	}
	for _, over := range []int{1, 3, 9, 20, 47, 60} {
		got := evictionOrder(sweeps, over, expired)
		want := evictionBySort(sweeps, over, expired)
		if !slices.Equal(got, want) {
			t.Errorf("over %d: evicted %v, want %v", over, got, want)
		}
	}
	never := func(time.Time) bool { return false }
	if got, want := evictionOrder(sweeps, 5, never), evictionBySort(sweeps, 5, never); !slices.Equal(got, want) {
		t.Errorf("no TTL: evicted %v, want %v", got, want)
	}

	s := &Server{log: obs.Nop(), sweeps: sweeps, maxSweeps: 50, sweepTTL: ttl}
	want := evictionBySort(sweeps, 10, expired)
	s.evictSweeps(now)
	for _, id := range want {
		if _, ok := s.sweeps[id]; ok {
			t.Errorf("sweep %s not evicted", id)
		}
	}
	if got := s.sweepsEvicted.Load(); got != uint64(len(want)) || len(s.sweeps) != 60-len(want) {
		t.Errorf("evicted %d, registry %d; want %d evicted", got, len(s.sweeps), len(want))
	}
}
