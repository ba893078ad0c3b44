package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/maps-sim/mapsim/internal/jobs"
	"github.com/maps-sim/mapsim/internal/journal"
	"github.com/maps-sim/mapsim/internal/results"
	"github.com/maps-sim/mapsim/internal/sweep"
)

// sweepGridHash canonically fingerprints an expanded sweep grid: the
// sha256 over every point's result-store key, in grid order. A journal
// whose recorded hash no longer matches the grid re-expanded from its
// spec was written by a build with different expansion or keying
// semantics — resuming it would silently mix incompatible points, so
// replay quarantines it instead.
func sweepGridHash(points []sweep.Point) string {
	h := sha256.New()
	for _, p := range points {
		pol, part := sweep.CacheNames(p)
		key, err := results.PointKeyFor(p.Config, pol, part)
		if err != nil {
			// Unkeyable points still contribute deterministically so
			// the hash stays order- and content-sensitive.
			key = results.Key(fmt.Sprintf("!%d:%v", p.Index, err))
		}
		h.Write([]byte(key))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// recoverSweeps replays the journal directory and resumes every sweep
// that lacks a terminal status record. Terminal journals are evidence
// of finished work whose results live in the store (startSweep flushes
// the store's disk writes before recording a terminal status); their
// files are removed. Called once from New, after the pool and store are serving.
func (s *Server) recoverSweeps() {
	sweeps, err := s.journal.Replay()
	if err != nil {
		s.log.Error("sweep journal replay failed; starting without recovery", "err", err)
		return
	}
	for _, sw := range sweeps {
		if sw.Status != nil {
			s.journal.Remove(sw.Admit.ID)
			continue
		}
		s.resumeSweep(sw)
	}
	s.evictSweeps(time.Now())
}

// resumeSweep validates a replayed journal against a fresh expansion
// of its recorded spec and, when the grids agree, reinstalls the sweep
// under its original ID. Any disagreement — undecodable spec, invalid
// grid, changed point count or grid hash — means the journal predates
// a semantic change; it is quarantined rather than half-resumed.
func (s *Server) resumeSweep(sw *journal.Sweep) {
	id := sw.Admit.ID
	var req SweepRequest
	if err := json.Unmarshal(sw.Admit.Spec, &req); err != nil {
		s.journal.Quarantine(id, fmt.Errorf("journaled spec undecodable: %w", err))
		return
	}
	spec, err := req.toSpec()
	if err != nil {
		s.journal.Quarantine(id, fmt.Errorf("journaled spec invalid: %w", err))
		return
	}
	points, err := spec.Expand()
	if err != nil {
		s.journal.Quarantine(id, fmt.Errorf("journaled spec no longer expands: %w", err))
		return
	}
	if len(points) != sw.Admit.Total {
		s.journal.Quarantine(id, fmt.Errorf("grid size drifted: journal %d points, expansion %d",
			sw.Admit.Total, len(points)))
		return
	}
	if got := sweepGridHash(points); got != sw.Admit.GridHash {
		s.journal.Quarantine(id, fmt.Errorf("grid hash drifted: journal %s, expansion %s",
			sw.Admit.GridHash, got))
		return
	}
	s.installRecovered(id, sw, spec, req, points)
}

// installRecovered registers a validated recovered sweep under its
// original ID and restarts its coordinator with the journaled point
// completions pre-marked, so the store answers them without
// re-simulation.
func (s *Server) installRecovered(id string, sw *journal.Sweep, spec sweep.Spec, req SweepRequest, points []sweep.Point) {
	completed := make(map[int]bool, len(sw.Points))
	for _, p := range sw.Points {
		if p.Index >= 0 && p.Index < len(points) {
			completed[p.Index] = true
		}
	}

	wal, err := s.journal.Resume(sw)
	if err != nil {
		s.log.Warn("sweep journal resume failed; recovered sweep will not survive another restart",
			"sweep", id, "err", err)
		wal = nil
	}

	ctx, cancel := context.WithCancel(context.Background())
	j := &sweepJob{id: id, cancel: cancel, done: make(chan struct{}), wal: wal}
	j.status = SweepStatus{
		ID:      id,
		State:   jobs.StateRunning,
		Total:   len(points),
		Created: sw.Admit.Created,
	}
	s.mu.Lock()
	if n, ok := sweepSeqOf(id); ok && n > s.sweepSeq {
		s.sweepSeq = n
	}
	s.sweeps[id] = j
	s.mu.Unlock()
	s.sweepsStarted.Add(1)
	s.sweepsRecovered.Add(1)
	s.sweepPointsPlanned.Add(uint64(len(points)))

	s.startSweep(ctx, cancel, j, spec, req.Parallelism,
		time.Duration(req.TimeoutSec*float64(time.Second)), completed)

	s.log.Info("sweep recovered from journal",
		"sweep", id,
		"completed_points", len(completed),
		"total", len(points),
		"truncated_tail", sw.Truncated)
}

// sweepSeqOf extracts the numeric suffix of a server-allocated sweep
// ID ("s-%08d"). Recovery seeds the ID allocator past every recovered
// sweep so fresh submissions never collide with resumed ones.
func sweepSeqOf(id string) (uint64, bool) {
	rest, ok := strings.CutPrefix(id, "s-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}
