// Package journal is mapsd's per-sweep write-ahead log: the layer
// that lets a sweep survive the coordinator that scheduled it. Every
// admitted sweep appends an admission record (its wire spec plus a
// canonical grid hash) and a terminal status record to an append-only
// file under the journal directory; a sweep that skips the result
// store's lookup (NoCache) also appends one record per completed
// point (canonical config hash → result key, worker attribution). The
// store carries completed points and the journal carries sweeps: on
// the next startup the daemon replays intact journals and resumes
// every unfinished sweep, the store answers the points it holds, and
// journaled points force that lookup for NoCache sweeps — so nothing
// stored re-simulates.
//
// The on-disk unit is a framed record (internal/frame, shared with the
// result store): a 4-byte little-endian payload length, a 4-byte
// little-endian CRC-32 (IEEE) of the payload, then the payload itself
// (one JSON Record). The discipline mirrors the
// result store's envelope handling (DESIGN.md §7 and §8): a record
// cut short at end of file is a torn tail — the crash interrupted an
// append — and is truncated away, keeping everything before it; a
// checksum or structural failure anywhere else means the file cannot
// be trusted and the whole journal is quarantined, never silently
// repaired and never fatal to startup.
//
// Appends degrade rather than block: a failed append (disk error, or
// the journal.append fault point) is counted and dropped, and the
// sweep keeps running — journal loss costs recovery fidelity after a
// crash, not availability before one.
package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/maps-sim/mapsim/internal/faults"
	"github.com/maps-sim/mapsim/internal/frame"
	"github.com/maps-sim/mapsim/internal/obs"
)

// Fault points the journal exposes to the chaos suite: append fires
// on every record append (an injected error drops the record, counted
// in DroppedAppends — the sweep proceeds unjournaled); replay fires
// once per journal file during Replay (an injected error quarantines
// that file, as if it were corrupt — startup never crashes).
const (
	FaultAppend = "journal.append"
	FaultReplay = "journal.replay"
)

var (
	faultAppend = faults.P(FaultAppend)
	faultReplay = faults.P(FaultReplay)
)

// MaxRecordBytes caps one record's payload. A framed length above it
// is structural corruption (quarantine), not a big record — it also
// bounds the allocation a hostile or scrambled file can induce.
const MaxRecordBytes = 8 << 20

// headerSize frames every record (internal/frame): 4 bytes payload
// length, 4 bytes CRC-32 (IEEE) of the payload, both little-endian.
const headerSize = frame.HeaderSize

// Record types.
const (
	// TypeAdmit is the first record of every journal: the sweep's
	// admission.
	TypeAdmit = "admit"
	// TypePoint records one completed grid point.
	TypePoint = "point"
	// TypeStatus records the sweep's terminal state.
	TypeStatus = "status"
)

// ErrCorrupt is the sentinel wrapped by every decode failure that
// means "these bytes are not a valid record": a checksum mismatch,
// malformed JSON, an absurd framed length, or an unknown record
// shape. Replay quarantines the whole file on it.
var ErrCorrupt = errors.New("journal: corrupt record")

// ErrTorn is the sentinel for a record cut short at end of file — the
// signature of a crash mid-append. Replay truncates the file back to
// the last intact record on it.
var ErrTorn = errors.New("journal: torn record")

// ErrClosed is returned by appends to a Writer that was already
// finished or closed.
var ErrClosed = errors.New("journal: writer closed")

// corrupt wraps a detail message in the ErrCorrupt sentinel.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Admit is a sweep's admission record: everything needed to rebuild
// its coordinator after a restart.
type Admit struct {
	// ID is the sweep's stable identifier; it doubles as the journal
	// filename stem, so it must be filesystem-safe (ValidID).
	ID string `json:"id"`
	// Created is the original admission time, preserved across
	// restarts so status responses stay truthful.
	Created time.Time `json:"created"`
	// Total is the expanded grid size at admission.
	Total int `json:"total"`
	// GridHash is a canonical hash over the expanded grid's per-point
	// content addresses. Replay recomputes it from Spec; a mismatch
	// means expansion semantics drifted between builds and the journal
	// is quarantined rather than resumed against the wrong grid.
	GridHash string `json:"grid_hash"`
	// Spec is the sweep's wire request, opaque to the journal — the
	// server re-decodes it on replay.
	Spec json.RawMessage `json:"spec"`
}

// Point records one completed grid point.
type Point struct {
	// Index is the point's position in grid order.
	Index int `json:"index"`
	// Key is the point's canonical content address in the result
	// store, where its payload survives the process.
	Key string `json:"key,omitempty"`
	// Worker names the fleet worker that executed the point (empty
	// for cached points).
	Worker string `json:"worker,omitempty"`
	// Cached marks a point served from the result store without
	// simulating.
	Cached bool `json:"cached,omitempty"`
}

// Status is a sweep's terminal record.
type Status struct {
	// State is the terminal state: done, failed, or canceled.
	State string `json:"state"`
	// Error carries the failure message for failed/canceled sweeps.
	Error string `json:"error,omitempty"`
}

// Record is one journal entry: Type selects which body is set.
type Record struct {
	// Type is TypeAdmit, TypePoint, or TypeStatus.
	Type string `json:"type"`
	// Admit is set for TypeAdmit records.
	Admit *Admit `json:"admit,omitempty"`
	// Point is set for TypePoint records.
	Point *Point `json:"point,omitempty"`
	// Status is set for TypeStatus records.
	Status *Status `json:"status,omitempty"`
}

// validate checks that the record's type matches its body — the
// structural half of decode validation.
func (r Record) validate() error {
	switch r.Type {
	case TypeAdmit:
		if r.Admit == nil {
			return corrupt("admit record without admit body")
		}
	case TypePoint:
		if r.Point == nil {
			return corrupt("point record without point body")
		}
	case TypeStatus:
		if r.Status == nil {
			return corrupt("status record without status body")
		}
	default:
		return corrupt("unknown record type %q", r.Type)
	}
	return nil
}

// EncodeRecord frames rec for appending: length, CRC-32, JSON payload.
func EncodeRecord(rec Record) ([]byte, error) {
	if err := rec.validate(); err != nil {
		return nil, err
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: encode record: %w", err)
	}
	if len(payload) > MaxRecordBytes {
		return nil, fmt.Errorf("journal: record payload %d bytes exceeds %d", len(payload), MaxRecordBytes)
	}
	return frame.Append(make([]byte, 0, headerSize+len(payload)), payload), nil
}

// DecodeRecord parses one framed record from the front of data and
// returns it with the byte count consumed. Incomplete frames (the
// data ends inside the header or payload) return ErrTorn; checksum,
// JSON, length, and structural failures return ErrCorrupt.
func DecodeRecord(data []byte) (Record, int, error) {
	payload, n, err := frame.Decode(data, MaxRecordBytes)
	if errors.Is(err, frame.ErrTorn) {
		return Record{}, 0, fmt.Errorf("%w: %v", ErrTorn, err)
	}
	if err != nil {
		return Record{}, 0, corrupt("%v", err)
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, 0, corrupt("bad JSON: %v", err)
	}
	if err := rec.validate(); err != nil {
		return Record{}, 0, err
	}
	return rec, n, nil
}

// ValidID reports whether id is a filesystem-safe journal name: ASCII
// letters, digits, '-', '_', '.', not starting with a dot, at most
// 128 bytes. Everything that maps an ID to a path checks this first,
// so a hostile ID can never escape the journal directory.
func ValidID(id string) bool {
	if id == "" || len(id) > 128 || id[0] == '.' {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// Sync is the journal's fsync policy.
type Sync int

// Fsync policies. Admission and terminal-status records are synced
// under SyncAlways and SyncInterval alike (they are rare and carry
// the most recovery value); SyncNever never syncs anything.
const (
	// SyncAlways fsyncs after every record — the default; a completed
	// point acknowledged to the journal survives an immediate SIGKILL.
	SyncAlways Sync = iota
	// SyncInterval fsyncs point records at most once per
	// Options.SyncInterval, trading the tail of recent completions
	// for append throughput.
	SyncInterval
	// SyncNever leaves flushing entirely to the OS.
	SyncNever
)

// ParseSync parses a -journal-fsync flag value: "always", "interval",
// or "never".
func ParseSync(s string) (Sync, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("journal: unknown fsync policy %q (want always, interval, or never)", s)
}

// String renders the policy as its flag spelling.
func (s Sync) String() string {
	switch s {
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return "always"
}

// Options configures Open.
type Options struct {
	// Dir is the journal directory; it is created if absent.
	Dir string
	// Sync is the fsync policy (default SyncAlways).
	Sync Sync
	// SyncInterval paces point-record fsyncs under SyncInterval
	// (default 100ms).
	SyncInterval time.Duration
	// Logger receives replay, truncation, and quarantine events; nil
	// means silent.
	Logger *slog.Logger
}

// Stats are the journal's cumulative counters.
type Stats struct {
	// Appends counts records durably appended; DroppedAppends counts
	// records lost to write errors or the journal.append fault — each
	// costs recovery fidelity, never availability.
	Appends        uint64 `json:"appends"`
	DroppedAppends uint64 `json:"dropped_appends"`
	// ReplayedSweeps and RecoveredPoints count what Replay handed
	// back: journals decoded intact and completed points inside them.
	ReplayedSweeps  uint64 `json:"replayed_sweeps"`
	RecoveredPoints uint64 `json:"recovered_points"`
	// TruncatedTails counts torn final records healed in place;
	// Quarantined counts whole journals moved aside as corrupt.
	TruncatedTails uint64 `json:"truncated_tails"`
	Quarantined    uint64 `json:"quarantined"`
}

// Dir is an open journal directory: the factory for per-sweep Writers
// and the replay surface startup recovery drives.
type Dir struct {
	dir       string
	sync      Sync
	syncEvery time.Duration
	log       *slog.Logger

	appends         atomic.Uint64
	droppedAppends  atomic.Uint64
	replayedSweeps  atomic.Uint64
	recoveredPoints atomic.Uint64
	truncatedTails  atomic.Uint64
	quarantined     atomic.Uint64
}

// Open creates (if needed) and opens a journal directory.
func Open(o Options) (*Dir, error) {
	if o.Dir == "" {
		return nil, errors.New("journal: empty directory")
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	log := o.Logger
	if log == nil {
		log = obs.Nop()
	}
	every := o.SyncInterval
	if every <= 0 {
		every = 100 * time.Millisecond
	}
	return &Dir{dir: o.Dir, sync: o.Sync, syncEvery: every, log: log}, nil
}

// Path returns the journal directory.
func (d *Dir) Path() string { return d.dir }

// Stats returns the cumulative journal counters.
func (d *Dir) Stats() Stats {
	return Stats{
		Appends:         d.appends.Load(),
		DroppedAppends:  d.droppedAppends.Load(),
		ReplayedSweeps:  d.replayedSweeps.Load(),
		RecoveredPoints: d.recoveredPoints.Load(),
		TruncatedTails:  d.truncatedTails.Load(),
		Quarantined:     d.quarantined.Load(),
	}
}

// walPath maps a sweep ID to its journal file.
func (d *Dir) walPath(id string) string {
	return filepath.Join(d.dir, id+".wal")
}

// Writer appends one sweep's records. Methods are safe for concurrent
// use; point records are deduplicated by grid index, so re-delivery
// of an already-journaled point (a resumed sweep re-serving recovered
// points from the store) is idempotent.
type Writer struct {
	d    *Dir
	id   string
	path string

	mu       sync.Mutex
	f        *os.File
	seen     map[int]bool
	lastSync time.Time
	closed   bool
}

// Create opens a fresh journal for the sweep described by a, writing
// and syncing its admission record. An existing journal under the
// same ID is truncated — the caller owns ID uniqueness.
func (d *Dir) Create(a Admit) (*Writer, error) {
	if !ValidID(a.ID) {
		return nil, fmt.Errorf("journal: invalid sweep id %q", a.ID)
	}
	path := d.walPath(a.ID)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	w := &Writer{d: d, id: a.ID, path: path, f: f, seen: make(map[int]bool)}
	if err := w.append(Record{Type: TypeAdmit, Admit: &a}, true); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return w, nil
}

// append frames and writes one record, syncing per policy (forceSync
// overrides for admission/status records).
func (w *Writer) append(rec Record, forceSync bool) error {
	buf, err := EncodeRecord(rec)
	if err != nil {
		w.d.droppedAppends.Add(1)
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(buf, forceSync)
}

// appendLocked writes one framed record; callers hold w.mu.
func (w *Writer) appendLocked(buf []byte, forceSync bool) error {
	if w.closed {
		return ErrClosed
	}
	if err := faultAppend.Hit(); err != nil {
		w.d.droppedAppends.Add(1)
		return fmt.Errorf("journal: append: %w", err)
	}
	if _, err := w.f.Write(buf); err != nil {
		// The file may now hold a torn tail; replay heals it.
		w.d.droppedAppends.Add(1)
		return fmt.Errorf("journal: append: %w", err)
	}
	w.d.appends.Add(1)
	switch {
	case w.d.sync == SyncNever:
	case w.d.sync == SyncAlways || forceSync:
		w.f.Sync()
		w.lastSync = time.Now()
	case time.Since(w.lastSync) >= w.d.syncEvery:
		w.f.Sync()
		w.lastSync = time.Now()
	}
	return nil
}

// Point appends one completed-point record. A point already journaled
// under the same index is a no-op. Errors mean the record was dropped
// (counted); the sweep should proceed regardless.
func (w *Writer) Point(p Point) error {
	buf, err := EncodeRecord(Record{Type: TypePoint, Point: &p})
	if err != nil {
		w.d.droppedAppends.Add(1)
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.seen[p.Index] {
		return nil
	}
	if err := w.appendLocked(buf, false); err != nil {
		return err
	}
	w.seen[p.Index] = true
	return nil
}

// Finish appends the terminal status record (always synced) and
// closes the file. The journal stays on disk — startup removes
// terminal journals, and registry eviction removes them earlier.
func (w *Writer) Finish(st Status) error {
	err := w.append(Record{Type: TypeStatus, Status: &st}, true)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close closes the file without a status record, leaving the sweep
// unfinished on disk — the graceful-shutdown path, so the next start
// resumes it exactly like a crash would.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.d.sync != SyncNever {
		w.f.Sync()
	}
	return w.f.Close()
}

// Sweep is one journal's replayed content.
type Sweep struct {
	// Admit is the admission record.
	Admit Admit
	// Points are the completed points, deduplicated by index,
	// ascending.
	Points []Point
	// Status is the terminal record, nil while the sweep was still
	// running when the process stopped — the resumable case.
	Status *Status
	// Truncated reports that a torn tail was cut from the file.
	Truncated bool
}

// Replay scans every *.wal in the directory: torn tails are truncated
// in place, corrupt files quarantined, and each intact journal
// returned in filename order. Replay never fails the whole startup
// for one bad file; the returned error covers only directory access.
func (d *Dir) Replay() ([]*Sweep, error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".wal") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var sweeps []*Sweep
	for _, name := range names {
		path := filepath.Join(d.dir, name)
		if err := faultReplay.Hit(); err != nil {
			d.quarantine(path, err)
			continue
		}
		sw, err := d.replayFile(path, strings.TrimSuffix(name, ".wal"))
		if err != nil {
			d.quarantine(path, err)
			continue
		}
		d.replayedSweeps.Add(1)
		d.recoveredPoints.Add(uint64(len(sw.Points)))
		sweeps = append(sweeps, sw)
	}
	return sweeps, nil
}

// replayFile decodes one journal. A torn tail truncates the file back
// to its intact prefix; any other failure is returned for quarantine.
func (d *Dir) replayFile(path, id string) (*Sweep, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("journal: read: %w", err)
	}
	sw := &Sweep{}
	byIndex := make(map[int]Point)
	off := 0
	for off < len(data) {
		rec, n, err := DecodeRecord(data[off:])
		if errors.Is(err, ErrTorn) {
			if terr := os.Truncate(path, int64(off)); terr != nil {
				return nil, fmt.Errorf("journal: truncate torn tail: %w", terr)
			}
			d.truncatedTails.Add(1)
			sw.Truncated = true
			d.log.Warn("journal torn tail truncated",
				"file", path, "kept_bytes", off, "cut_bytes", len(data)-off, "cause", err)
			break
		}
		if err != nil {
			return nil, err
		}
		switch rec.Type {
		case TypeAdmit:
			if off != 0 {
				return nil, corrupt("admit record at offset %d", off)
			}
			if rec.Admit.ID != id {
				return nil, corrupt("admit id %q in journal %q", rec.Admit.ID, id)
			}
			sw.Admit = *rec.Admit
		case TypePoint:
			if off == 0 {
				return nil, corrupt("first record is %s, want admit", rec.Type)
			}
			byIndex[rec.Point.Index] = *rec.Point
		case TypeStatus:
			if off == 0 {
				return nil, corrupt("first record is %s, want admit", rec.Type)
			}
			st := *rec.Status
			sw.Status = &st
		}
		off += n
	}
	if sw.Admit.ID == "" {
		return nil, corrupt("no admission record")
	}
	idxs := make([]int, 0, len(byIndex))
	for i := range byIndex {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		sw.Points = append(sw.Points, byIndex[i])
	}
	return sw, nil
}

// Resume compacts a replayed, unfinished sweep's journal — one admit
// record plus its deduplicated points, written to a temp file and
// atomically renamed over the original — and reopens it for appends
// with the recovered points pre-marked, so the resumed coordinator's
// re-deliveries are no-ops.
func (d *Dir) Resume(sw *Sweep) (*Writer, error) {
	if !ValidID(sw.Admit.ID) {
		return nil, fmt.Errorf("journal: invalid sweep id %q", sw.Admit.ID)
	}
	path := d.walPath(sw.Admit.ID)
	tmp, err := os.CreateTemp(d.dir, "wal-*.tmp")
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	write := func() error {
		a := sw.Admit
		buf, err := EncodeRecord(Record{Type: TypeAdmit, Admit: &a})
		if err != nil {
			return err
		}
		for i := range sw.Points {
			p := sw.Points[i]
			rb, err := EncodeRecord(Record{Type: TypePoint, Point: &p})
			if err != nil {
				return err
			}
			buf = append(buf, rb...)
		}
		if _, err := tmp.Write(buf); err != nil {
			return err
		}
		if d.sync != SyncNever {
			tmp.Sync()
		}
		return nil
	}
	if err := write(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("journal: compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("journal: compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("journal: compact: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: reopen: %w", err)
	}
	seen := make(map[int]bool, len(sw.Points))
	for _, p := range sw.Points {
		seen[p.Index] = true
	}
	return &Writer{d: d, id: sw.Admit.ID, path: path, f: f, seen: seen}, nil
}

// Remove deletes the sweep's journal file — called for terminal
// journals at startup and on registry eviction. A missing file is
// fine.
func (d *Dir) Remove(id string) error {
	if !ValidID(id) {
		return fmt.Errorf("journal: invalid sweep id %q", id)
	}
	err := os.Remove(d.walPath(id))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Quarantine moves the sweep's journal into the quarantine
// subdirectory with a logged reason — for callers (the server's
// recovery) that detect semantic corruption the codec cannot, such as
// a grid-hash mismatch after a spec re-expansion.
func (d *Dir) Quarantine(id string, reason error) {
	if !ValidID(id) {
		return
	}
	d.quarantine(d.walPath(id), reason)
}

// quarantine moves path aside (or removes it when the move fails) and
// counts it, mirroring the store's corrupt-envelope discipline.
func (d *Dir) quarantine(path string, reason error) {
	qdir := filepath.Join(d.dir, "quarantine")
	dest := filepath.Join(qdir, filepath.Base(path))
	if err := os.MkdirAll(qdir, 0o755); err != nil || os.Rename(path, dest) != nil {
		os.Remove(path)
		dest = "(removed)"
	}
	d.quarantined.Add(1)
	d.log.Warn("journal quarantined", "file", path, "moved_to", dest, "cause", reason)
}
