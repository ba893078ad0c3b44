// Package engine implements the memory encryption engine (MEE): the
// memory-controller logic that turns every LLC miss or writeback into
// the data access plus the counter, hash, and integrity-tree traffic
// that secure memory requires, filtered through an optional metadata
// cache.
//
// The engine follows the organization MAPS assumes:
//
//   - Reads fetch the data block and, in parallel, its counter; a
//     counter miss triggers a verification walk up the Bonsai Merkle
//     Tree that stops at the first cached (already-verified) ancestor.
//     The data hash is fetched for integrity verification.
//   - Writes (dirty LLC evictions) increment the counter and update
//     the data hash in the metadata cache; the tree update is deferred
//     until the dirty counter block is itself evicted, at which point
//     the update propagates one level per eviction (the paper's §IV-E
//     observation that metadata caches delay tree writes).
//   - With no metadata cache, every metadata access goes to memory
//     immediately, including tree writes right after counter writes.
//   - With speculation (PoisonIvy-style), verification latency is off
//     the critical path; decryption still needs the counter, so a
//     counter miss always costs latency.
package engine

import (
	"fmt"

	"github.com/maps-sim/mapsim/internal/dram"
	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/trace"
)

// Config assembles an engine.
type Config struct {
	// Layout maps data addresses to their metadata.
	Layout *memlayout.Layout
	// Meta is the metadata cache; nil simulates no metadata cache.
	Meta *metacache.MetaCache
	// DRAM provides memory timing and energy; required.
	DRAM *dram.Memory
	// Speculation hides verification latency (PoisonIvy). Without
	// it, tree and hash verification serialize with the read.
	Speculation bool
	// SpeculationWindow bounds how much verification latency
	// speculation can hide, modelling the finite epoch/buffer depth
	// of PoisonIvy-style designs: verification beyond the window
	// stalls the pipeline. Zero means unbounded (the paper's default
	// assumption); ignored when Speculation is false.
	SpeculationWindow uint64
	// HashLatency is the HMAC engine latency in cycles (Table I: 40).
	HashLatency uint64
	// HashThroughputCycles is the HMAC engine issue interval: one
	// hash may start per this many cycles (Table I: one per DRAM
	// cycle ≈ 4 CPU cycles at 3 GHz / DDR3-1600). Zero selects 4.
	// Verification bursts that outpace the engine queue behind it.
	HashThroughputCycles uint64
	// Tap, when set, observes every metadata block request the
	// engine makes (for reuse analysis and trace recording). Cost is
	// the number of memory accesses the request itself triggered.
	Tap func(a trace.Access)
}

// MemTraffic counts memory accesses by purpose.
type MemTraffic struct {
	DataReads     uint64
	DataWrites    uint64
	CounterReads  uint64
	CounterWrites uint64
	HashReads     uint64
	HashWrites    uint64
	TreeReads     uint64
	TreeWrites    uint64
}

// Total sums all traffic.
func (m MemTraffic) Total() uint64 {
	return m.DataReads + m.DataWrites + m.CounterReads + m.CounterWrites +
		m.HashReads + m.HashWrites + m.TreeReads + m.TreeWrites
}

// Metadata sums metadata-only traffic.
func (m MemTraffic) Metadata() uint64 {
	return m.Total() - m.DataReads - m.DataWrites
}

// Stats aggregates engine activity.
type Stats struct {
	Reads             uint64 // data read requests served
	Writebacks        uint64 // data writeback requests served
	Mem               MemTraffic
	PageReencryptions uint64 // split-counter minor overflows
	TreeWalkLevels    uint64 // tree nodes touched during verification
	SpecWindowStalls  uint64 // reads whose verification outran the window
}

// Engine is the behavioral/timing MEE.
type Engine struct {
	cfg     Config
	layout  *memlayout.Layout
	meta    *metacache.MetaCache
	dram    *dram.Memory
	stats   Stats
	evQueue []metacache.Evicted
	// The metadata cache's content and partial-write policies, resolved
	// at New; all false without a metadata cache.
	cacheCounters, cacheHashes, cacheTree, partialWrites bool
	// hashReadyAt models the HMAC engine's issue throughput: the
	// cycle at which it can accept the next computation.
	hashReadyAt uint64

	// counters tracks per-block logical counter values so split-
	// counter overflows (page re-encryptions) happen exactly when
	// they would in hardware. SGX layouts never use it.
	counters counterTable
}

// New builds an engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Layout == nil {
		return nil, fmt.Errorf("engine: layout is required")
	}
	if cfg.DRAM == nil {
		return nil, fmt.Errorf("engine: DRAM model is required")
	}
	if cfg.Meta != nil && cfg.Layout.TotalBytes() > cfg.Meta.Reach() {
		return nil, fmt.Errorf("engine: layout spans %d B, beyond the %d B the metadata cache can address", cfg.Layout.TotalBytes(), cfg.Meta.Reach())
	}
	if cfg.HashLatency == 0 {
		cfg.HashLatency = 40
	}
	if cfg.HashThroughputCycles == 0 {
		cfg.HashThroughputCycles = 4
	}
	e := &Engine{
		cfg:      cfg,
		layout:   cfg.Layout,
		meta:     cfg.Meta,
		dram:     cfg.DRAM,
		counters: counterTable{limit: int(cfg.Layout.CounterBlocks())},
	}
	if m := cfg.Meta; m != nil {
		c := m.Content()
		e.cacheCounters, e.cacheHashes, e.cacheTree = c.Allows(memlayout.KindCounter), c.Allows(memlayout.KindHash), c.Allows(memlayout.KindTree)
		e.partialWrites = m.PartialWrites()
	}
	return e, nil
}

// The metadata-cache classes of counter and hash blocks; a tree
// node's is EncodeClass(memlayout.KindTree, level).
var counterClass, hashClass = metacache.EncodeClass(memlayout.KindCounter, 0), metacache.EncodeClass(memlayout.KindHash, 0)

// MustNew is New but panics on error.
func MustNew(cfg Config) *Engine {
	e, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Stats returns a copy of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// ResetStats zeroes statistics (cache/counter state persists) and the
// metadata cache counters with it.
func (e *Engine) ResetStats() {
	e.stats = Stats{}
	if e.meta != nil {
		e.meta.ResetStats()
	}
	e.dram.ResetStats()
}

// Meta exposes the metadata cache (nil when absent).
func (e *Engine) Meta() *metacache.MetaCache { return e.meta }

// tap reports one metadata block request to Config.Tap. It is small
// enough to inline, so an untapped engine pays only the nil check.
func (e *Engine) tap(addr uint64, kind memlayout.Kind, write bool, cost uint64) {
	if e.cfg.Tap != nil {
		e.emit(addr, kind, write, cost)
	}
}

// emit calls Config.Tap with cost saturated to a byte.
func (e *Engine) emit(addr uint64, kind memlayout.Kind, write bool, cost uint64) {
	c := cost
	if c > 255 {
		c = 255
	}
	e.cfg.Tap(trace.Access{Addr: addr, Write: write, Class: uint8(kind), Cost: uint8(c)})
}

// hashCompute charges one HMAC computation starting no earlier than
// `now`, returning its contribution to a serialized latency chain.
// Back-to-back verifications queue behind the engine's issue rate.
func (e *Engine) hashCompute(now uint64) uint64 {
	start := now
	if e.hashReadyAt > start {
		start = e.hashReadyAt
	}
	e.hashReadyAt = start + e.cfg.HashThroughputCycles
	return (start - now) + e.cfg.HashLatency
}

// Read services an LLC read miss for the data block at dataAddr,
// returning the critical-path latency in cycles.
func (e *Engine) Read(now uint64, dataAddr uint64) (latency uint64) {
	dataAddr = memlayout.BlockOf(dataAddr)
	e.stats.Reads++

	// Data fetch and counter fetch proceed in parallel.
	dataLat := e.dram.Access(now, dataAddr, false)
	e.stats.Mem.DataReads++

	counterLat, verifyLat := e.fetchCounter(now, dataAddr)

	// Data hash for integrity verification.
	hashLat := e.fetchHash(now, dataAddr)

	crit := dataLat
	if counterLat > crit {
		crit = counterLat
	}
	fullVerify := verifyLat + hashLat + e.hashCompute(now)
	switch {
	case !e.cfg.Speculation:
		// Verification serializes: tree hashes plus the data hash
		// check (fetch + one HMAC computation).
		crit += fullVerify
	case e.cfg.SpeculationWindow > 0 && fullVerify > e.cfg.SpeculationWindow:
		// The speculation window overflowed: the pipeline stalls for
		// the verification tail it could not buffer.
		crit += fullVerify - e.cfg.SpeculationWindow
		e.stats.SpecWindowStalls++
	}
	return crit
}

// Writeback services a dirty-data eviction from the LLC. The work is
// off the critical path; the returned occupancy latency is
// informational.
func (e *Engine) Writeback(now uint64, dataAddr uint64) (latency uint64) {
	dataAddr = memlayout.BlockOf(dataAddr)
	e.stats.Writebacks++

	// Counter increment: the counter block must be present (and
	// verified) to re-encrypt.
	cAddr := e.layout.CounterAddr(dataAddr)
	switch {
	case e.cacheCounters:
		cost := uint64(0)
		hit, _, evAddr, evFlags := e.meta.Access(cAddr, counterClass, true, -1)
		e.drain(now, evAddr, evFlags)
		if !hit {
			// Fetch and verify before modifying; the block is now
			// dirty in the cache.
			latency += e.dram.Access(now, cAddr, false)
			e.stats.Mem.CounterReads++
			cost = 1
			_, walkCost := e.verifyAncestors(now, cAddr)
			cost += walkCost
		}
		e.tap(cAddr, memlayout.KindCounter, true, cost)
	case e.meta != nil:
		// Counters bypass the cache: read-modify-write immediately
		// (verifying through the — possibly cached — tree) and push
		// the tree update out right away.
		e.meta.Bypass(counterClass)
		latency += e.dram.Access(now, cAddr, false)
		e.dram.Access(now, cAddr, true)
		e.stats.Mem.CounterReads++
		e.stats.Mem.CounterWrites++
		_, walkCost := e.verifyAncestors(now, cAddr)
		e.tap(cAddr, memlayout.KindCounter, true, 2+walkCost)
		// The parent update may displace a dirty tree node; drain it
		// here, since no drain is running to pick it up.
		e.updateParent(now, cAddr)
		e.drainQueue(now)
	default:
		// No cache: read-modify-write the counter and update every
		// tree level immediately.
		latency += e.dram.Access(now, cAddr, false)
		e.dram.Access(now, cAddr, true)
		e.stats.Mem.CounterReads++
		e.stats.Mem.CounterWrites++
		e.tap(cAddr, memlayout.KindCounter, true, 2)
		for node := e.layout.Parent(cAddr); node != memlayout.RootAddr; node = e.layout.Parent(node) {
			e.dram.Access(now, node, true)
			e.stats.Mem.TreeWrites++
			e.stats.TreeWalkLevels++
			e.tap(node, memlayout.KindTree, true, 1)
		}
	}

	// Advance the logical counter; a minor overflow re-encrypts the
	// whole page (off the critical path but heavy on memory traffic).
	if e.increment(dataAddr) {
		e.stats.PageReencryptions++
		e.reencryptPage(now, dataAddr)
	}

	// Write the (re-encrypted) data block.
	latency += e.dram.Access(now, dataAddr, true)
	e.stats.Mem.DataWrites++

	// Update the data hash.
	hAddr := e.layout.HashAddr(dataAddr)
	hSlot := e.layout.HashSlot(dataAddr)
	if e.cacheHashes {
		cost := uint64(0)
		_, tagHit, evAddr, evFlags := e.meta.Access(hAddr, hashClass, true, hSlot)
		e.drain(now, evAddr, evFlags)
		if !tagHit && !e.partialWrites {
			// Without partial writes the cache fetched nothing; the
			// whole block must come from memory before the update.
			// With partial writes the placeholder absorbs the write.
			latency += e.dram.Access(now, hAddr, false)
			e.stats.Mem.HashReads++
			cost = 1
		}
		e.tap(hAddr, memlayout.KindHash, true, cost)
	} else {
		if e.meta != nil {
			e.meta.Bypass(hashClass)
		}
		e.dram.Access(now, hAddr, false)
		e.dram.Access(now, hAddr, true)
		e.stats.Mem.HashReads++
		e.stats.Mem.HashWrites++
		e.tap(hAddr, memlayout.KindHash, true, 2)
	}
	return latency
}

// fetchCounter obtains the counter protecting dataAddr for a read.
// It returns the decryption-critical latency and the
// verification-only latency (hidden under speculation).
func (e *Engine) fetchCounter(now uint64, dataAddr uint64) (critLat, verifyLat uint64) {
	cAddr := e.layout.CounterAddr(dataAddr)
	if e.meta == nil {
		critLat = e.dram.Access(now, cAddr, false)
		e.stats.Mem.CounterReads++
		e.tap(cAddr, memlayout.KindCounter, false, uint64(1+e.layout.TreeLevels()))
		for node := e.layout.Parent(cAddr); node != memlayout.RootAddr; node = e.layout.Parent(node) {
			verifyLat += e.dram.Access(now, node, false) + e.hashCompute(now)
			e.stats.Mem.TreeReads++
			e.stats.TreeWalkLevels++
			e.tap(node, memlayout.KindTree, false, 1)
		}
		return critLat, verifyLat
	}

	if !e.cacheCounters {
		// Bypassed counters always come from memory, verified
		// through the (possibly cached) tree.
		e.meta.Bypass(counterClass)
		critLat = e.dram.Access(now, cAddr, false)
		e.stats.Mem.CounterReads++
		var walkCost uint64
		verifyLat, walkCost = e.verifyAncestors(now, cAddr)
		e.tap(cAddr, memlayout.KindCounter, false, 1+walkCost)
		return critLat, verifyLat
	}

	cost := uint64(0)
	hit, _, evAddr, evFlags := e.meta.Access(cAddr, counterClass, false, -1)
	e.drain(now, evAddr, evFlags)
	if !hit {
		critLat = e.dram.Access(now, cAddr, false)
		e.stats.Mem.CounterReads++
		cost = 1
		var walkCost uint64
		verifyLat, walkCost = e.verifyAncestors(now, cAddr)
		cost += walkCost
	}
	e.tap(cAddr, memlayout.KindCounter, false, cost)
	return critLat, verifyLat
}

// fetchHash obtains the data hash for dataAddr (read path), returning
// the fetch latency (zero on a metadata-cache hit).
func (e *Engine) fetchHash(now uint64, dataAddr uint64) (lat uint64) {
	hAddr := e.layout.HashAddr(dataAddr)
	hSlot := e.layout.HashSlot(dataAddr)
	if e.meta == nil {
		lat = e.dram.Access(now, hAddr, false)
		e.stats.Mem.HashReads++
		e.tap(hAddr, memlayout.KindHash, false, 1)
		return lat
	}
	cost := uint64(0)
	hit, _, evAddr, evFlags := e.meta.Access(hAddr, hashClass, false, hSlot)
	e.drain(now, evAddr, evFlags)
	if !hit {
		lat = e.dram.Access(now, hAddr, false)
		e.stats.Mem.HashReads++
		cost = 1
	}
	e.tap(hAddr, memlayout.KindHash, false, cost)
	return lat
}

// verifyAncestors walks the tree upward from a freshly fetched
// counter or tree block, fetching nodes until one is already cached
// (hence verified) or the on-chip root is reached. It returns the
// serialized verification latency and the number of memory accesses
// performed.
func (e *Engine) verifyAncestors(now uint64, addr uint64) (lat, accesses uint64) {
	// The chain iterator decodes addr once; re-deriving each node's
	// level via Parent + Classify cost two layout decodes per level on
	// the counter-miss path.
	walk := e.layout.WalkFrom(addr)
	for {
		node, level, ok := walk.Next()
		if !ok {
			break
		}
		e.stats.TreeWalkLevels++
		cost := uint64(0)
		hit, _, evAddr, evFlags := e.meta.Access(node, metacache.EncodeClass(memlayout.KindTree, level), false, -1)
		e.drain(now, evAddr, evFlags)
		if !hit {
			lat += e.dram.Access(now, node, false) + e.hashCompute(now)
			e.stats.Mem.TreeReads++
			accesses++
			cost = 1
		}
		e.tap(node, memlayout.KindTree, false, cost)
		if hit {
			break
		}
	}
	return lat, accesses
}

// drain handles the dirty block, if any, a metadata-cache access
// displaced (Access's evAddr and evFlags): it is written to memory and,
// for counters and tree nodes, updates its parent tree node, which may
// displace further blocks, queued and handled in turn. drain inlines,
// so an access that displaced nothing pays only the test.
func (e *Engine) drain(now, evAddr, evFlags uint64) {
	if evFlags != 0 {
		e.drainFrom(now, evAddr, evFlags)
	}
}

func (e *Engine) drainFrom(now, evAddr, evFlags uint64) {
	e.handleEviction(now, metacache.DecodeEvicted(evAddr, evFlags))
	e.drainQueue(now)
}

// drainQueue handles every eviction in e.evQueue, including those
// queued while handling earlier ones, and empties it.
func (e *Engine) drainQueue(now uint64) {
	// Consume via an index instead of re-slicing the front so the
	// queue's capacity is reused across accesses (zero steady-state
	// allocations); handleEviction may append while we drain.
	for head := 0; head < len(e.evQueue); head++ {
		if head > 1<<20 {
			panic("engine: eviction cascade did not terminate")
		}
		e.handleEviction(now, e.evQueue[head])
	}
	e.evQueue = e.evQueue[:0]
}

func (e *Engine) handleEviction(now uint64, ev metacache.Evicted) {
	switch ev.Kind {
	case memlayout.KindCounter:
		e.dram.Access(now, ev.Addr, true)
		e.stats.Mem.CounterWrites++
		e.updateParent(now, ev.Addr)
	case memlayout.KindTree:
		if ev.Partial {
			// Unfilled slots must be read from memory before the
			// block can be written back whole.
			e.dram.Access(now, ev.Addr, false)
			e.stats.Mem.TreeReads++
		}
		e.dram.Access(now, ev.Addr, true)
		e.stats.Mem.TreeWrites++
		e.updateParent(now, ev.Addr)
	case memlayout.KindHash:
		if ev.Partial {
			e.dram.Access(now, ev.Addr, false)
			e.stats.Mem.HashReads++
		}
		e.dram.Access(now, ev.Addr, true)
		e.stats.Mem.HashWrites++
	}
}

// updateParent records the new HMAC of a written-back counter or
// tree block into its parent node (the on-chip root is free).
func (e *Engine) updateParent(now uint64, addr uint64) {
	parent, level, slot := e.layout.ParentInfo(addr)
	if parent == memlayout.RootAddr {
		return
	}
	if !e.cacheTree {
		// Tree nodes bypass the cache: push the update through every
		// level immediately, as in the cache-less organization.
		for node := parent; node != memlayout.RootAddr; node = e.layout.Parent(node) {
			e.meta.Bypass(metacache.EncodeClass(memlayout.KindTree, 0))
			e.dram.Access(now, node, true)
			e.stats.Mem.TreeWrites++
			e.tap(node, memlayout.KindTree, true, 1)
		}
		return
	}
	cost := uint64(0)
	_, tagHit, evAddr, evFlags := e.meta.Access(parent, metacache.EncodeClass(memlayout.KindTree, level), true, slot)
	if !tagHit && !e.partialWrites {
		// Fetch the parent before updating one of its slots.
		e.dram.Access(now, parent, false)
		e.stats.Mem.TreeReads++
		cost = 1
	}
	e.tap(parent, memlayout.KindTree, true, cost)
	// Nested evictions join the queue currently being drained.
	if evFlags != 0 {
		e.evQueue = append(e.evQueue, metacache.DecodeEvicted(evAddr, evFlags))
	}
}

// increment advances the logical counter for the data block at
// dataAddr and reports a minor-counter overflow. SGX-organization
// layouts use 64-bit counters that never overflow.
func (e *Engine) increment(dataAddr uint64) bool {
	if e.layout.Organization() == memlayout.SGX {
		return false
	}
	// A PoisonIvy counter block covers one page: the page number is
	// the counter block's number.
	return e.counters.increment(dataAddr/memlayout.PageSize, e.layout.CounterSlot(dataAddr))
}

// reencryptPage models a split-counter overflow: every block of the
// page is read, re-encrypted under the new major counter, and written
// back.
func (e *Engine) reencryptPage(now uint64, dataAddr uint64) {
	page := memlayout.PageOf(dataAddr)
	for b := uint64(0); b < memlayout.BlocksPerPage; b++ {
		addr := page + b*memlayout.BlockSize
		e.dram.Access(now, addr, false)
		e.dram.Access(now, addr, true)
		e.stats.Mem.DataReads++
		e.stats.Mem.DataWrites++
	}
}

// Flush drains all dirty metadata-cache state to memory, completing
// the deferred tree updates so accounting balances at simulation end.
// Draining re-dirties parent tree nodes inside the cache, so the
// flush iterates until the cache is clean; each round moves updates
// at least one level up the tree, bounding the iteration count.
func (e *Engine) Flush(now uint64) {
	if e.meta == nil {
		return
	}
	for round := 0; ; round++ {
		dirty := e.meta.Flush()
		if len(dirty) == 0 {
			return
		}
		if round > e.layout.TreeLevels()+2 {
			panic("engine: flush did not converge")
		}
		for _, ev := range dirty {
			e.handleEviction(now, ev)
			e.drainQueue(now)
		}
	}
}
