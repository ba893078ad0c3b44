// Package results is a content-addressed, LRU-bounded cache of
// simulation results. Jobs are keyed by a canonical hash of the
// simulation configuration (after sim.Config.Canonical applies every
// default), so two requests that would simulate identically — however
// differently they were spelled — share one cache entry and the
// second is served without re-running the simulator.
//
// Canonicalization rules (also in DESIGN.md):
//
//  1. Defaults are applied first via sim.Config.Canonical, so an
//     omitted field and its explicit default hash equal.
//  2. Configs carrying caller state (Workload, Tap, Meta.Policy,
//     Meta.Partition) are rejected — function values and stateful
//     policy instances have no canonical encoding.
//  3. Every remaining field is written into the hash in a fixed
//     order with an explicit field tag, so reordering or adding
//     fields can never silently collide with an old encoding.
package results

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"sync"

	"github.com/maps-sim/mapsim/internal/faults"
	"github.com/maps-sim/mapsim/internal/sim"
)

// faultPut is the injection point armed (as "results.put") to make
// cache stores fail: the write is dropped, so the service keeps
// working but re-simulates what it could not remember — the graceful
// degradation a real cache-backend outage would cause.
var faultPut = faults.P("results.put")

// Key is a content address: hex-encoded SHA-256 of the canonical
// configuration encoding.
type Key string

// hashField writes a tagged scalar into the hash. The tag keeps
// field boundaries unambiguous (two adjacent integers can never
// re-associate) and makes encodings self-describing enough that
// adding a field changes every affected hash.
func hashField(h hash.Hash, tag string, vals ...uint64) {
	h.Write([]byte(tag))
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
}

func hashString(h hash.Hash, tag, s string) {
	hashField(h, tag, uint64(len(s)))
	h.Write([]byte(s))
}

func hashFloat(h hash.Hash, tag string, f float64) {
	hashField(h, tag, math.Float64bits(f))
}

// KeyFor computes the content address of a single simulation run.
func KeyFor(cfg sim.Config) (Key, error) {
	c, err := cfg.Canonical()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	hashString(h, "kind", "run")
	hashConfig(h, c)
	return Key(hex.EncodeToString(h.Sum(nil))), nil
}

// PointKeyFor computes the content address of one sweep point: the
// simulation config plus the replacement-policy and partition-scheme
// *names* sweep.Instantiate builds fresh per run (instances themselves
// are stateful and have no canonical encoding). When both names are
// empty — the metadata cache's built-in defaults — the key degrades to
// KeyFor's plain run key, so a sweep point and an identical single-run
// job share one cache entry.
func PointKeyFor(cfg sim.Config, policy, partition string) (Key, error) {
	if policy == "" && partition == "" {
		return KeyFor(cfg)
	}
	c, err := cfg.Canonical()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	hashString(h, "kind", "point")
	hashConfig(h, c)
	hashString(h, "policy", policy)
	hashString(h, "partition", partition)
	return Key(hex.EncodeToString(h.Sum(nil))), nil
}

// hashConfig writes every canonicalized field. Keep this in lockstep
// with sim.Config: a new field must be hashed here or identical keys
// could map to different simulations.
func hashConfig(h hash.Hash, c sim.Config) {
	hashString(h, "bench", c.Benchmark)
	hashField(h, "instr", c.Instructions)
	hashField(h, "warmup", c.Warmup)
	hashField(h, "seed", uint64(c.Seed))
	hashField(h, "hier",
		uint64(c.Hierarchy.L1Size), uint64(c.Hierarchy.L1Ways),
		uint64(c.Hierarchy.L2Size), uint64(c.Hierarchy.L2Ways),
		uint64(c.Hierarchy.L3Size), uint64(c.Hierarchy.L3Ways))
	secure := uint64(0)
	if c.Secure {
		secure = 1
	}
	hashField(h, "secure", secure)
	hashField(h, "org", uint64(c.Org))
	if c.Meta != nil {
		hashField(h, "meta",
			uint64(c.Meta.Size), uint64(c.Meta.Ways), uint64(c.Meta.Content))
		partial := uint64(0)
		if c.Meta.PartialWrites {
			partial = 1
		}
		hashField(h, "partial", partial)
	}
	spec := uint64(0)
	if c.Speculation {
		spec = 1
	}
	hashField(h, "spec", spec, c.SpeculationWindow)
	hashField(h, "dram",
		uint64(c.DRAM.Banks), c.DRAM.RowBytes,
		c.DRAM.TRCD, c.DRAM.TCAS, c.DRAM.TRP, c.DRAM.TBurst)
	hashFloat(h, "drampjb", c.DRAM.EnergyPJPerBit)
	hashFloat(h, "dramact", c.DRAM.RowActivatePJ)
	hashFloat(h, "cpi", c.BaseCPI)
	hashField(h, "lat", c.L2HitLatency, c.L3HitLatency)
	if c.WorkloadSpec != nil {
		// Canonical() already normalized the spec, so equivalent
		// spellings serialize — and therefore hash — identically. The
		// tag keeps a spec-driven run from ever colliding with a named
		// benchmark of the same label.
		hashString(h, "wspec", string(c.WorkloadSpec.CanonicalJSON()))
	}
}

// Stats counts cache activity. Hits/Misses/Evictions are cumulative;
// Entries is the current population.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// DroppedPuts counts stores abandoned by an armed results.put
	// fault — writes the cache "lost" during fault injection.
	DroppedPuts uint64 `json:"dropped_puts"`
	Entries     int    `json:"entries"`
	Capacity    int    `json:"capacity"`
	// SizeBytes sums the lengths of the entries' kept encodings (each
	// value's json.Marshal bytes, made once at Put), so the memory tier
	// reports capacity in the same unit as the disk tier under it
	// (mapsd_cache_bytes vs mapsd_store_bytes).
	SizeBytes int64 `json:"size_bytes"`
}

// HitRatio returns Hits / (Hits + Misses), zero when idle.
func (s Stats) HitRatio() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

type entry struct {
	key   Key
	value any
	// data is value's canonical JSON, json.Marshal(value); nil when
	// the value does not encode.
	data []byte
}

// Cache is a thread-safe LRU-bounded map from content address to
// result. Values are opaque (the server stores *sim.Result); the
// cache never mutates them, and callers must treat returned values as
// shared and immutable. Each entry keeps its value's JSON encoding
// beside it, so the value is encoded once, at Put, however often it is
// served.
type Cache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	byKey map[Key]*list.Element
	stats Stats
}

// New creates a cache holding at most capacity entries (minimum 1).
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		cap:   capacity,
		order: list.New(),
		byKey: make(map[Key]*list.Element, capacity),
	}
}

// Get returns the cached value for key, marking it most recently
// used, and records a hit or miss.
func (c *Cache) Get(key Key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.order.MoveToFront(el)
	return el.Value.(*entry).value, true
}

// Peek returns the cached value for key and its kept encoding (nil
// when the value does not encode) without counting a hit or miss and
// without refreshing recency — the read-through the store's
// peer-serving and reply-encoding paths use, so serving never
// distorts this daemon's own LRU order or hit ratio.
func (c *Cache) Peek(key Key) (value any, data []byte, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, nil, false
	}
	e := el.Value.(*entry)
	return e.value, e.data, true
}

// Put stores value under key with its encoding, json.Marshal(value),
// and returns that encoding (nil when value does not encode). The
// encoding is kept beside the value, evicting the least recently used
// entry when full; storing an existing key refreshes its value and
// recency. An armed results.put fault drops the write (counted in
// Stats.DroppedPuts): callers never see an error, they just lose the
// caching — the same contract a best-effort external cache would have.
func (c *Cache) Put(key Key, value any) []byte {
	// Outside the lock; encoding isn't free. An unencodable value keeps
	// nil: Marshal's error only says so.
	data, _ := json.Marshal(value)
	c.PutEncoded(key, value, data)
	return data
}

// PutEncoded is Put for a value whose encoding the caller already
// holds, such as a verified disk or peer payload: data must be
// json.Marshal(value), or nil.
func (c *Cache) PutEncoded(key Key, value any, data []byte) {
	if err := faultPut.Hit(); err != nil {
		c.mu.Lock()
		c.stats.DroppedPuts++
		c.mu.Unlock()
		return
	}
	size := int64(len(data))
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*entry)
		c.stats.SizeBytes += size - int64(len(e.data))
		e.value, e.data = value, data
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		old := oldest.Value.(*entry)
		delete(c.byKey, old.key)
		c.stats.SizeBytes -= int64(len(old.data))
		c.stats.Evictions++
	}
	c.byKey[key] = c.order.PushFront(&entry{key: key, value: value, data: data})
	c.stats.SizeBytes += size
}

// Len returns the current number of entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.order.Len()
	s.Capacity = c.cap
	return s
}

// String summarizes the cache for logs.
func (c *Cache) String() string {
	s := c.Stats()
	return fmt.Sprintf("results.Cache{%d/%d entries, %d hits, %d misses, %d evictions}",
		s.Entries, s.Capacity, s.Hits, s.Misses, s.Evictions)
}
