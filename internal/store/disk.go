package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/maps-sim/mapsim/internal/frame"
	"github.com/maps-sim/mapsim/internal/results"
)

// Disk layout under Options.Dir:
//
//	segments/<seq>.log      append-only record logs; <seq> is
//	                        zero-padded decimal, the highest the newest
//	quarantine/<key>.json   records that failed validation, copied
//	                        aside for post-mortems
//
// A record is one internal/frame frame (length, CRC-32) whose payload
// is the 64-byte key followed by the Encode envelope. A later record
// for a key supersedes an earlier one. Each store appends to one
// segment it holds an exclusive flock on, so a second store over a
// live directory starts a segment of its own and never writes, cuts
// or reclaims the first one's.
const (
	segmentsDir   = "segments"
	quarantineDir = "quarantine"
	segmentExt    = ".log"
	// legacyDir is the one-file-per-entry layout earlier builds wrote.
	// Open warns about it and leaves it; nothing reads it.
	legacyDir = "objects"
	// segmentBytes seals the active segment once it reaches this
	// size. A MaxBytes cap lowers it to MaxBytes/8, so compaction
	// can reclaim space well before the cap is reached.
	segmentBytes = 8 << 20
	// maxRecordBytes bounds one record: a larger framed length is
	// corruption, and a larger envelope is dropped at Put.
	maxRecordBytes = 64 << 20
	keyLen         = 64
)

// diskEntry locates one live record.
type diskEntry struct {
	seg  uint64 // segment sequence number
	off  int64  // record offset in the segment
	size int64  // record bytes, frame header included
	// access is a logical LRA clock tick: higher = more recently
	// accessed. Seeded in record order at Open, bumped on every hit
	// and write, consulted by the GC.
	access uint64
}

// segment is one open segment file.
type segment struct {
	f    *os.File
	path string
	size int64 // bytes this store has seen in the file
	live int64 // bytes of indexed records
	// foreign marks a segment another store wrote after this one
	// indexed it; this store never reclaims it.
	foreign bool
}

func segmentName(seq uint64) string { return fmt.Sprintf("%08d%s", seq, segmentExt) }

// openDisk prepares the directory tree and indexes the segments
// already there from their record headers alone: payloads are
// validated lazily on Get, so a store opens in one small read per
// record. It adopts the newest segment for appends when no other
// store holds it, cutting a torn tail off it first.
func (s *Store) openDisk() error {
	segDir := filepath.Join(s.dir, segmentsDir)
	for _, d := range []string{segDir, filepath.Join(s.dir, quarantineDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	if _, err := os.Stat(filepath.Join(s.dir, legacyDir)); err == nil {
		s.log.Warn("store: ignoring legacy objects/ tree; its results will be recomputed",
			"dir", filepath.Join(s.dir, legacyDir))
	}
	s.sealAt = segmentBytes
	if s.maxBytes > 0 {
		s.sealAt = min(segmentBytes, s.maxBytes/8)
	}
	ents, err := os.ReadDir(segDir)
	if err != nil {
		return err
	}
	var seqs []uint64
	for _, e := range ents {
		stem, ok := strings.CutSuffix(e.Name(), segmentExt)
		seq, err := strconv.ParseUint(stem, 10, 64)
		if ok && err == nil && seq > 0 && segmentName(seq) == e.Name() {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for i, seq := range seqs {
		if err := s.loadSegment(seq, i == len(seqs)-1); err != nil {
			s.closeSegments()
			return err
		}
		s.nextSeq = seq
	}
	if s.active == 0 {
		if err := s.rotate(); err != nil {
			s.closeSegments()
			return err
		}
	}
	s.gc()
	return nil
}

// loadSegment indexes one segment's records. newest marks the
// segment Open may adopt for appends.
func (s *Store) loadSegment(seq uint64, newest bool) error {
	path := filepath.Join(s.dir, segmentsDir, segmentName(seq))
	flag := os.O_RDONLY
	if newest {
		flag = os.O_RDWR | os.O_APPEND
	}
	f, err := os.OpenFile(path, flag, 0)
	if err != nil {
		return err
	}
	own := newest && lockFile(f) == nil
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	seg := &segment{f: f, path: path, size: info.Size()}
	s.segs[seq] = seg
	var hdr [frame.HeaderSize + keyLen]byte
	off := int64(0)
	for off < seg.size {
		if _, err := f.ReadAt(hdr[:], off); err == io.EOF {
			break // a header cut short: torn
		} else if err != nil {
			return err // a failing read is not a torn tail; cut nothing
		}
		n, err := frame.Length(hdr[:], maxRecordBytes)
		if err != nil || n <= keyLen || off+frame.HeaderSize+int64(n) > seg.size {
			break
		}
		if key := results.Key(hdr[frame.HeaderSize:]); ValidKey(key) {
			s.index(key, diskEntry{seg: seq, off: off, size: frame.HeaderSize + int64(n)})
		}
		off += frame.HeaderSize + int64(n)
	}
	if off < seg.size && own {
		// A crash cut this store's last append short. Only the store
		// holding the segment may cut it: in anyone else's, the
		// "torn" bytes may be an append in flight.
		if err := f.Truncate(off); err != nil {
			unlockFile(f)
			return err
		}
		s.log.Warn("store: torn segment tail truncated",
			"segment", path, "kept_bytes", off, "cut_bytes", seg.size-off)
		seg.size = off
	}
	switch {
	case own && seg.size < s.sealAt:
		s.active = seq
	case own:
		unlockFile(f)
	}
	return nil
}

// rotate seals the active segment, if any, and starts a fresh one
// numbered past every segment this store has seen. Writer only.
func (s *Store) rotate() error {
	if s.active != 0 {
		unlockFile(s.segs[s.active].f)
		s.active = 0
	}
	for {
		s.nextSeq++
		path := filepath.Join(s.dir, segmentsDir, segmentName(s.nextSeq))
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
		if errors.Is(err, fs.ErrExist) {
			continue // another store's segment
		}
		if err != nil {
			return err
		}
		if lockFile(f) != nil {
			f.Close() // another store opened and adopted it first
			continue
		}
		s.dmu.Lock()
		s.segs[s.nextSeq] = &segment{f: f, path: path}
		s.dmu.Unlock()
		s.active = s.nextSeq
		return nil
	}
}

// appendRecord writes one whole record to the active segment with a
// single write and returns where it landed. A failed write is cut
// back off the segment so the next append starts on a record
// boundary. Writer only.
func (s *Store) appendRecord(rec []byte) (diskEntry, error) {
	if s.active == 0 {
		if err := s.rotate(); err != nil {
			return diskEntry{}, err
		}
	}
	seq, seg := s.active, s.segs[s.active]
	off := seg.size
	if _, err := seg.f.Write(rec); err != nil {
		if seg.f.Truncate(off) != nil {
			s.rotate() // leave the damage for the segment's next owner to cut
		}
		return diskEntry{}, err
	}
	seg.size += int64(len(rec))
	if seg.size >= s.sealAt {
		if err := s.rotate(); err != nil {
			s.log.Warn("store: cannot start a new segment", "error", err)
		}
	}
	return diskEntry{seg: seq, off: off, size: int64(len(rec))}, nil
}

// index publishes e as key's live record, superseding any earlier
// one. Callers hold dmu (or own the store, as Open does).
func (s *Store) index(key results.Key, e diskEntry) {
	if old, ok := s.entries[key]; ok {
		s.unindex(key, old)
	}
	s.clock++
	e.access = s.clock
	s.entries[key] = e
	s.segs[e.seg].live += e.size
	s.diskBytes += e.size
}

// unindex forgets key's record e. Callers hold dmu.
func (s *Store) unindex(key results.Key, e diskEntry) {
	delete(s.entries, key)
	s.segs[e.seg].live -= e.size
	s.diskBytes -= e.size
}

// diskGet reads and validates key's record with one pread. It returns
// the envelope bytes, the payload within them, and, when decode is
// set, the decoded value.
// Every miss or failure returns ok=false, so the caller falls through
// to the next tier; a record that fails validation is quarantined.
func (s *Store) diskGet(key results.Key, decode bool) (raw, payload []byte, v any, ok bool) {
	e, f, indexed := s.locate(key)
	if !indexed {
		return nil, nil, nil, false
	}
	if err := faultGet.Hit(); err != nil {
		// Injected disk-read failure: degrade to a miss, keep the
		// entry — the disk may come back.
		s.diskErrors.Add(1)
		return nil, nil, nil, false
	}
	rec := make([]byte, e.size)
	_, err := f.ReadAt(rec, e.off)
	for errors.Is(err, os.ErrClosed) {
		// Compaction moved the record, or the GC dropped it, and
		// closed the segment the lookup named: follow it. Once the
		// store is closed nothing moves, and the read fails below.
		ne, nf, ok := s.locate(key)
		if !ok {
			return nil, nil, nil, false
		}
		if ne.seg == e.seg {
			break
		}
		e, f = ne, nf
		rec = make([]byte, e.size)
		_, err = f.ReadAt(rec, e.off)
	}
	if err != nil && err != io.EOF {
		s.diskErrors.Add(1)
		return nil, nil, nil, false
	}
	raw, env, err := decodeRecord(key, rec)
	switch {
	case err != nil:
	case decode:
		v, err = env.Value()
	case !json.Valid(env.Payload):
		// Decode leaves an Encode-layout payload to Value to scan.
		err = corrupt("payload is not JSON")
	}
	if err != nil {
		s.quarantine(key, e, rec, err)
		return nil, nil, nil, false
	}
	s.touch(key)
	return raw, env.Payload, v, true
}

// locate returns key's live record and the file holding it.
func (s *Store) locate(key results.Key) (diskEntry, *os.File, bool) {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return diskEntry{}, nil, false
	}
	return e, s.segs[e.seg].f, true
}

// decodeRecord validates a record read for key — frame checksum, the
// key it carries, then the envelope — and returns the envelope bytes.
func decodeRecord(key results.Key, rec []byte) ([]byte, *Envelope, error) {
	payload, n, err := frame.Decode(rec, maxRecordBytes)
	switch {
	case err != nil:
		return nil, nil, corrupt("record: %v", err)
	case n != len(rec) || len(payload) <= keyLen:
		return nil, nil, corrupt("record spans %d bytes, indexed %d", n, len(rec))
	case string(payload[:keyLen]) != string(key):
		return nil, nil, corrupt("record for %s holds key %q", key, payload[:keyLen])
	}
	raw := payload[keyLen:]
	env, err := Decode(raw)
	if err == nil && env.Key != string(key) {
		err = corrupt("entry %s holds key %s", key, env.Key)
	}
	if err != nil {
		return nil, nil, err
	}
	return raw, env, nil
}

// touch marks key most recently accessed in the LRA index.
func (s *Store) touch(key results.Key) {
	s.dmu.Lock()
	if e, ok := s.entries[key]; ok {
		s.clock++
		e.access = s.clock
		s.entries[key] = e
	}
	s.dmu.Unlock()
}

// quarantine copies a failed-validation record into the quarantine
// directory and drops it from the index; compaction reclaims its
// bytes later. The simulation that produced it will simply be re-run
// on the next request — corruption costs compute, never availability.
func (s *Store) quarantine(key results.Key, e diskEntry, rec []byte, cause error) {
	if err := os.WriteFile(filepath.Join(s.dir, quarantineDir, string(key)+".json"), rec, 0o644); err != nil {
		s.log.Warn("store: cannot copy corrupt record aside", "key", string(key), "error", err)
	}
	s.dmu.Lock()
	if cur, ok := s.entries[key]; ok && cur.seg == e.seg && cur.off == e.off {
		s.unindex(key, cur)
	}
	s.dmu.Unlock()
	s.quarantined.Add(1)
	s.log.Warn("store: quarantined corrupt entry", "key", string(key), "error", cause)
}

// diskPut appends one record holding key and its envelope, then
// publishes it in the index: a Get sees the record only once the
// write that holds it has returned. Only the writer goroutine calls
// this.
func (s *Store) diskPut(key results.Key, env []byte) {
	if err := faultPut.Hit(); err != nil {
		// Injected write failure (the disk-full drill): drop the write
		// and count it; the result still lives in the memory tier.
		s.droppedDiskPuts.Add(1)
		return
	}
	if keyLen+len(env) > maxRecordBytes {
		s.droppedDiskPuts.Add(1)
		s.log.Warn("store: oversized envelope dropped", "key", string(key), "bytes", len(env))
		return
	}
	s.wbuf = frame.Append(s.wbuf[:0], []byte(key), env)
	e, err := s.appendRecord(s.wbuf)
	if err != nil {
		s.droppedDiskPuts.Add(1)
		s.log.Warn("store: disk write dropped", "key", string(key), "error", err)
		return
	}
	s.dmu.Lock()
	s.index(key, e)
	s.dmu.Unlock()
	s.diskPuts.Add(1)
	s.gc()
}

// gc enforces MaxBytes by dropping least-recently-accessed entries
// until the live records fit, then reclaims every sealed segment that
// is at most half live. It runs on the writer goroutine (after each
// put) and once at Open — never on a Get path — so lookups never pay
// for eviction.
func (s *Store) gc() {
	s.dmu.Lock()
	if s.maxBytes > 0 && s.diskBytes > s.maxBytes {
		type aged struct {
			key    results.Key
			access uint64
		}
		order := make([]aged, 0, len(s.entries))
		for k, e := range s.entries {
			order = append(order, aged{k, e.access})
		}
		sort.Slice(order, func(i, j int) bool { return order[i].access < order[j].access })
		for _, a := range order {
			if s.diskBytes <= s.maxBytes {
				break
			}
			s.unindex(a.key, s.entries[a.key])
			s.gcEvictions.Add(1)
		}
	}
	var sparse []uint64
	for seq, seg := range s.segs {
		if seq != s.active && !seg.foreign && 2*seg.live <= seg.size {
			sparse = append(sparse, seq)
		}
	}
	s.dmu.Unlock()
	sort.Slice(sparse, func(i, j int) bool { return sparse[i] < sparse[j] })
	for _, seq := range sparse {
		s.compact(seq)
	}
}

// compact copies a sealed segment's live records to the active
// segment, repoints the index at the copies, and deletes the segment.
// A segment another store still holds, or has grown since this one
// indexed it, is left alone. Writer only.
func (s *Store) compact(seq uint64) {
	seg := s.segs[seq]
	if lockFile(seg.f) != nil {
		return
	}
	if info, err := seg.f.Stat(); err != nil || info.Size() != seg.size {
		seg.foreign = true
		unlockFile(seg.f)
		return
	}
	type move struct {
		key results.Key
		e   diskEntry
	}
	var moves []move
	s.dmu.Lock()
	for k, e := range s.entries {
		if e.seg == seq {
			moves = append(moves, move{k, e})
		}
	}
	s.dmu.Unlock()
	sort.Slice(moves, func(i, j int) bool { return moves[i].e.off < moves[j].e.off })
	for _, m := range moves {
		rec := make([]byte, m.e.size)
		if _, err := seg.f.ReadAt(rec, m.e.off); err != nil {
			unlockFile(seg.f)
			return
		}
		ne, err := s.appendRecord(rec)
		if err != nil {
			unlockFile(seg.f)
			return
		}
		s.dmu.Lock()
		// A Get may have quarantined the record meanwhile; then the
		// copy is dead bytes for a later compaction.
		if cur, ok := s.entries[m.key]; ok && cur.seg == seq && cur.off == m.e.off {
			ne.access = cur.access
			s.segs[seq].live -= cur.size
			s.segs[ne.seg].live += ne.size
			s.entries[m.key] = ne
		}
		s.dmu.Unlock()
	}
	s.dmu.Lock()
	delete(s.segs, seq)
	s.dmu.Unlock()
	seg.f.Close()
	if err := os.Remove(seg.path); err != nil {
		s.log.Warn("store: cannot remove compacted segment", "segment", seg.path, "error", err)
	}
}

// closeSegments closes every segment file, releasing this store's
// lock on its active one.
func (s *Store) closeSegments() {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	for _, seg := range s.segs {
		seg.f.Close()
	}
	s.active = 0
}
