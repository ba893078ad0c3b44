package store

import (
	"context"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"github.com/maps-sim/mapsim/internal/faults"
	"github.com/maps-sim/mapsim/internal/obs"
	"github.com/maps-sim/mapsim/internal/results"
)

// Fault-injection points (docs/ROBUSTNESS.md). All three degrade the
// store to the next tier — or to recompute — rather than surfacing
// errors to callers:
//
//	store.get   disk reads fail (dying disk): lookups skip the disk tier
//	store.put   disk writes fail (disk full): results stay memory-only
//	store.peer  peer fetches fail (fleet partition): misses recompute
var (
	faultGet  = faults.P("store.get")
	faultPut  = faults.P("store.put")
	faultPeer = faults.P("store.peer")
)

// defaultPeerTimeout bounds one peer fetch during Get. Recomputing a
// point costs real simulation time, so it is worth waiting a moment —
// but a hung peer must never wedge a lookup.
const defaultPeerTimeout = 5 * time.Second

// writeQueueDepth bounds the async disk-write backlog. Beyond it,
// writes are dropped (and counted) rather than stalling simulation
// workers on a slow disk: the store is a cache, not a ledger.
const writeQueueDepth = 256

// Peer is one remote mapsd consulted on local misses. Fetch returns
// the raw envelope bytes for a key — in production it is backed by
// the retrying mapsim.Client hitting GET /v1/store/{key} (wired in
// cmd/mapsd), so peer fill inherits the client's backoff and
// Retry-After handling.
type Peer struct {
	// Name labels the peer in logs (its base URL in production).
	Name string
	// Fetch retrieves the envelope for key, or an error on any miss
	// or failure. It must honor ctx.
	Fetch func(ctx context.Context, key results.Key) ([]byte, error)
}

// Options configures Open.
type Options struct {
	// Memory is tier 0, the in-process LRU. Nil gets a modest default
	// (results.New(256)).
	Memory *results.Cache
	// Dir roots the disk tier; empty disables it (memory + peers only).
	Dir string
	// MaxBytes caps the disk tier; past it the GC evicts
	// least-recently-accessed entries. Zero or negative = unbounded.
	MaxBytes int64
	// Peers are consulted in order on local (memory + disk) misses.
	Peers []Peer
	// PeerTimeout bounds each peer fetch (default 5s).
	PeerTimeout time.Duration
	// Logger receives quarantine and dropped-write warnings; nil means
	// silent.
	Logger *slog.Logger
}

// pendingWrite is one queued disk write: raw envelope bytes when the
// value arrived already framed (peer fill), otherwise the value and
// its encoding, which the writer goroutine frames.
type pendingWrite struct {
	key     results.Key
	value   any
	payload []byte
	raw     []byte
}

// Store is the tiered result store. All methods are safe for
// concurrent use. See the package comment for the tier discipline.
type Store struct {
	mem         *results.Cache
	dir         string
	maxBytes    int64
	peers       []Peer
	peerTimeout time.Duration
	log         *slog.Logger

	// Disk index (disk.go): key → record location + LRA tick, and
	// the open segments. dmu guards both; the writer goroutine is the
	// only one that adds segments or moves records.
	dmu       sync.Mutex
	entries   map[results.Key]diskEntry
	segs      map[uint64]*segment
	diskBytes int64
	clock     uint64

	// Writer-goroutine state (and Open's, before the writer starts):
	// the segment appends go to (0 = none yet), the highest segment
	// number seen, the size that seals a segment, and a reusable
	// record buffer.
	active  uint64
	nextSeq uint64
	sealAt  int64
	wbuf    []byte

	// Async writer: Put enqueues, one goroutine drains. closed gates
	// the channel so Put after Close degrades to a counted drop
	// instead of a panic.
	wmu        sync.Mutex
	writeCh    chan pendingWrite
	writerDone chan struct{}
	closed     bool
	pending    atomic.Int64

	memHits         atomic.Uint64
	diskHits        atomic.Uint64
	peerFills       atomic.Uint64
	misses          atomic.Uint64
	puts            atomic.Uint64
	diskPuts        atomic.Uint64
	droppedDiskPuts atomic.Uint64
	gcEvictions     atomic.Uint64
	quarantined     atomic.Uint64
	diskErrors      atomic.Uint64
	peerErrors      atomic.Uint64
}

// Open builds a store over opts, preparing the disk directory tree
// (when Dir is set) and starting the background writer. Close (or
// server.Shutdown, which calls it) flushes and stops the writer.
func Open(opts Options) (*Store, error) {
	if opts.Memory == nil {
		opts.Memory = results.New(256)
	}
	if opts.PeerTimeout <= 0 {
		opts.PeerTimeout = defaultPeerTimeout
	}
	log := opts.Logger
	if log == nil {
		log = obs.Nop()
	}
	s := &Store{
		mem:         opts.Memory,
		dir:         opts.Dir,
		maxBytes:    opts.MaxBytes,
		peers:       opts.Peers,
		peerTimeout: opts.PeerTimeout,
		log:         log,
		entries:     make(map[results.Key]diskEntry),
		segs:        make(map[uint64]*segment),
	}
	if s.dir != "" {
		if err := s.openDisk(); err != nil {
			return nil, err
		}
		s.writeCh = make(chan pendingWrite, writeQueueDepth)
		s.writerDone = make(chan struct{})
		go s.writer()
	}
	return s, nil
}

// MemoryOnly wraps an existing results.Cache as a store with no disk
// tier and no peers — the zero-configuration default the server falls
// back to. It cannot fail and starts no goroutines.
func MemoryOnly(c *results.Cache) *Store {
	s, _ := Open(Options{Memory: c})
	return s
}

// Memory returns tier 0, the in-process LRU (its Stats feed the
// mapsd_cache_* metric family).
func (s *Store) Memory() *results.Cache { return s.mem }

// Get looks key up through the tiers: memory, then disk, then each
// peer in order. Lower-tier hits back-fill the tiers above (a peer
// hit is also queued for the disk tier), the memory tier keeping the
// verified payload as the value's encoding rather than encoding the
// decoded value again. ctx bounds only the peer fetches — local
// tiers never block on it.
func (s *Store) Get(ctx context.Context, key results.Key) (any, bool) {
	if v, ok := s.mem.Get(key); ok {
		s.memHits.Add(1)
		return v, true
	}
	if s.dir != "" {
		if _, payload, v, ok := s.diskGet(key, true); ok {
			s.diskHits.Add(1)
			s.mem.PutEncoded(key, v, payload)
			return v, true
		}
	}
	for i := range s.peers {
		p := &s.peers[i]
		env, v, raw, ok := s.fetchPeer(ctx, p, key)
		if !ok {
			continue
		}
		s.peerFills.Add(1)
		s.mem.PutEncoded(key, v, env.Payload)
		s.enqueue(pendingWrite{key: key, raw: raw})
		return v, true
	}
	s.misses.Add(1)
	return nil, false
}

// fetchPeer asks one peer for key, validating the returned envelope
// exactly like a disk read — a confused or hostile peer can cost a
// recompute, never serve a wrong or torn result.
func (s *Store) fetchPeer(ctx context.Context, p *Peer, key results.Key) (*Envelope, any, []byte, bool) {
	if err := faultPeer.Hit(); err != nil {
		s.peerErrors.Add(1)
		return nil, nil, nil, false
	}
	fctx, cancel := context.WithTimeout(ctx, s.peerTimeout)
	defer cancel()
	raw, err := p.Fetch(fctx, key)
	if err != nil {
		s.peerErrors.Add(1)
		return nil, nil, nil, false
	}
	env, err := Decode(raw)
	if err == nil && env.Key != string(key) {
		err = corrupt("peer %s answered key %s for %s", p.Name, env.Key, key)
	}
	var v any
	if err == nil {
		v, err = env.Value()
	}
	if err != nil {
		s.peerErrors.Add(1)
		s.log.Warn("store: bad peer envelope", "peer", p.Name, "key", string(key), "error", err)
		return nil, nil, nil, false
	}
	return env, v, raw, true
}

// Put stores value under key in the memory tier and, when a disk tier
// is configured, queues an asynchronous envelope write. value is
// encoded once, by the memory tier's Put; the disk writer frames those
// bytes. value must not change after Put. It never blocks on the
// disk: a full write queue drops the disk copy (counted in
// Stats.DroppedDiskPuts) and keeps the memory one.
func (s *Store) Put(key results.Key, value any) {
	s.puts.Add(1)
	payload := s.mem.Put(key, value)
	if s.dir != "" {
		s.enqueue(pendingWrite{key: key, value: value, payload: payload})
	}
}

// enqueue hands a write to the background writer, dropping (and
// counting) it when the queue is full or the store is closed.
func (s *Store) enqueue(pw pendingWrite) {
	if s.writeCh == nil {
		return
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.closed {
		s.droppedDiskPuts.Add(1)
		return
	}
	select {
	case s.writeCh <- pw:
		s.pending.Add(1)
	default:
		s.droppedDiskPuts.Add(1)
	}
}

// writer drains the queue: frame the value's kept encoding (unless
// the bytes arrived framed, as peer fills do) and append.
func (s *Store) writer() {
	defer close(s.writerDone)
	for pw := range s.writeCh {
		data := pw.raw
		if data == nil {
			var err error
			if data, err = encodePayload(pw.key, pw.value, pw.payload); err != nil {
				s.droppedDiskPuts.Add(1)
				s.log.Warn("store: unencodable value dropped", "key", string(pw.key), "error", err)
				s.pending.Add(-1)
				continue
			}
		}
		s.diskPut(pw.key, data)
		s.pending.Add(-1)
	}
}

// Envelope returns the raw envelope bytes for key from the local
// tiers only — peers are never consulted, so two daemons pointing at
// each other cannot set off a fill storm. This is what the
// GET /v1/store/{key} handler serves. A memory-tier value's envelope
// frames the encoding the tier kept at Put, so its payload is
// json.Marshal of the value; the memory LRU order and hit counters
// are left untouched (serving a peer is not local demand).
func (s *Store) Envelope(key results.Key) ([]byte, bool) {
	if !ValidKey(key) {
		return nil, false
	}
	if v, payload, ok := s.mem.Peek(key); ok {
		if data, err := encodePayload(key, v, payload); err == nil {
			return data, true
		}
	}
	if s.dir != "" {
		if raw, _, _, ok := s.diskGet(key, false); ok {
			return raw, true
		}
	}
	return nil, false
}

// Encoded returns the encoding the memory tier kept for v,
// json.Marshal(v), when the tier holds exactly v under key: the same
// pointer, not an equal value. So a reply never splices bytes kept for
// another value stored under key since, such as a no_cache re-run's
// result with its own Timing. It returns nil otherwise, and, like
// Envelope, leaves LRU order and hit counts alone. v must be a
// pointer.
func (s *Store) Encoded(key results.Key, v any) []byte {
	if cur, data, ok := s.mem.Peek(key); ok && cur == v {
		return data
	}
	return nil
}

// Flush blocks until every queued disk write has been attempted, or
// ctx expires. The graceful-drain path runs it so a SIGTERM'd daemon
// persists everything its last jobs computed.
func (s *Store) Flush(ctx context.Context) error {
	if s.writeCh == nil {
		return nil
	}
	for s.pending.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
	return nil
}

// Close stops the writer after it drains every queued write, closes
// the segment files, then returns. Idempotent; Puts arriving after
// Close keep the memory tier but drop (and count) their disk copy.
func (s *Store) Close() {
	if s.writeCh == nil {
		return
	}
	s.wmu.Lock()
	if !s.closed {
		s.closed = true
		close(s.writeCh)
	}
	s.wmu.Unlock()
	<-s.writerDone
	s.closeSegments()
}

// Stats is a snapshot of the store's counters and gauges, feeding the
// mapsd_store_* metric family (docs/OBSERVABILITY.md).
type Stats struct {
	// MemHits, DiskHits, and PeerFills count Gets answered by each
	// tier; Misses count Gets no tier could answer.
	MemHits   uint64 `json:"mem_hits"`
	DiskHits  uint64 `json:"disk_hits"`
	PeerFills uint64 `json:"peer_fills"`
	Misses    uint64 `json:"misses"`
	// Puts counts stores; DiskPuts the envelopes that reached disk;
	// DroppedDiskPuts the disk copies lost to faults, write errors, a
	// full queue, or Close.
	Puts            uint64 `json:"puts"`
	DiskPuts        uint64 `json:"disk_puts"`
	DroppedDiskPuts uint64 `json:"dropped_disk_puts"`
	// GCEvictions counts entries the size cap evicted, Quarantined the
	// corrupt entries moved aside, DiskErrors failed reads that were
	// not corruption, PeerErrors failed or invalid peer fetches.
	GCEvictions uint64 `json:"gc_evictions"`
	Quarantined uint64 `json:"quarantined"`
	DiskErrors  uint64 `json:"disk_errors"`
	PeerErrors  uint64 `json:"peer_errors"`
	// DiskEntries and DiskBytes size the disk tier; PendingWrites is
	// the writer backlog; Peers counts configured peers.
	DiskEntries   int   `json:"disk_entries"`
	DiskBytes     int64 `json:"disk_bytes"`
	PendingWrites int   `json:"pending_writes"`
	Peers         int   `json:"peers"`
	// Dir is the disk tier root, empty when memory-only.
	Dir string `json:"dir,omitempty"`
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	s.dmu.Lock()
	entries, bytes := len(s.entries), s.diskBytes
	s.dmu.Unlock()
	return Stats{
		MemHits:         s.memHits.Load(),
		DiskHits:        s.diskHits.Load(),
		PeerFills:       s.peerFills.Load(),
		Misses:          s.misses.Load(),
		Puts:            s.puts.Load(),
		DiskPuts:        s.diskPuts.Load(),
		DroppedDiskPuts: s.droppedDiskPuts.Load(),
		GCEvictions:     s.gcEvictions.Load(),
		Quarantined:     s.quarantined.Load(),
		DiskErrors:      s.diskErrors.Load(),
		PeerErrors:      s.peerErrors.Load(),
		DiskEntries:     entries,
		DiskBytes:       bytes,
		PendingWrites:   int(s.pending.Load()),
		Peers:           len(s.peers),
		Dir:             s.dir,
	}
}
