package sim

import (
	"encoding/json"
	"time"

	"github.com/maps-sim/mapsim/internal/cache"
	"github.com/maps-sim/mapsim/internal/dram"
	"github.com/maps-sim/mapsim/internal/energy"
	"github.com/maps-sim/mapsim/internal/jsonread"
	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/secmem/engine"
)

// resultJSON is Result without its methods: what encoding/json
// decodes into when the fast path declines an input.
type resultJSON Result

// UnmarshalJSON decodes a Result. The canonical encoding — what
// encoding/json's encoder writes for a Result — decoded into a zero
// Result is read in one reflection-free pass (internal/jsonread).
// Every other input, and any non-zero target, is decoded by
// encoding/json, so values and errors are always encoding/json's.
func (res *Result) UnmarshalJSON(data []byte) error {
	if res.isZero() {
		r := jsonread.New(data)
		resultFields.Read(r, res)
		if r.End() {
			return nil
		}
		*res = Result{}
	}
	return json.Unmarshal(data, (*resultJSON)(res))
}

// ReadResult reads a canonical Result object from r: the fast path of
// UnmarshalJSON for a Result nested in a larger value. On input that
// is not canonical it fails r, and the caller falls back to
// encoding/json for the whole value.
func ReadResult(r *jsonread.Reader) *Result {
	res := new(Result)
	resultFields.Read(r, res)
	return res
}

// isZero reports whether res is the zero Result, the only target the
// fast path decodes into (encoding/json merges into a non-zero one).
func (res *Result) isZero() bool {
	return res.Benchmark == "" && res.Instructions == 0 && res.Cycles == 0 && res.IPC == 0 &&
		res.LLC == cache.Stats{} && res.LLCMPKI == 0 && res.Hier == [3]cache.Stats{} && res.DataMPKI == 0 &&
		res.Meta == nil && res.MetaMPKI == 0 && res.MetaMemPKI == 0 && res.MetaHitRate == 0 && res.TreeLevels == nil &&
		res.Mem == engine.MemTraffic{} && res.PageReencryptions == 0 && res.SpecWindowStalls == 0 &&
		res.DRAM == dram.Stats{} && res.Energy == energy.Account{} && res.EnergyPJ == 0 && res.ED2 == 0 &&
		res.Timing == PhaseTiming{} && res.Sharding == nil
}

// The field tables below mirror the structs' JSON encodings, in field
// order. Types from other packages have no JSON tags, so their keys
// are the Go field names.

var resultFields = jsonread.Fields[Result]{
	{Name: "benchmark", Read: func(r *jsonread.Reader, v *Result) { v.Benchmark = r.String() }},
	{Name: "instructions", Read: func(r *jsonread.Reader, v *Result) { v.Instructions = r.Uint64() }},
	{Name: "cycles", Read: func(r *jsonread.Reader, v *Result) { v.Cycles = r.Uint64() }},
	{Name: "ipc", Read: func(r *jsonread.Reader, v *Result) { v.IPC = r.Float64() }},
	{Name: "llc", Read: func(r *jsonread.Reader, v *Result) { cacheStatsFields.Read(r, &v.LLC) }},
	{Name: "llc_mpki", Read: func(r *jsonread.Reader, v *Result) { v.LLCMPKI = r.Float64() }},
	{Name: "hierarchy", Read: readHier},
	{Name: "data_mpki", Read: func(r *jsonread.Reader, v *Result) { v.DataMPKI = r.Float64() }},
	{Name: "meta", Read: readMeta},
	{Name: "meta_mpki", Read: func(r *jsonread.Reader, v *Result) { v.MetaMPKI = r.Float64() }},
	{Name: "meta_mem_pki", Read: func(r *jsonread.Reader, v *Result) { v.MetaMemPKI = r.Float64() }},
	{Name: "meta_hit_rate", Read: func(r *jsonread.Reader, v *Result) { v.MetaHitRate = r.Float64() }},
	{Name: "tree_levels", Read: readTreeLevels},
	{Name: "mem_traffic", Read: func(r *jsonread.Reader, v *Result) { memTrafficFields.Read(r, &v.Mem) }},
	{Name: "page_reencryptions", Read: func(r *jsonread.Reader, v *Result) { v.PageReencryptions = r.Uint64() }},
	{Name: "spec_window_stalls", Read: func(r *jsonread.Reader, v *Result) { v.SpecWindowStalls = r.Uint64() }},
	{Name: "dram", Read: func(r *jsonread.Reader, v *Result) { dramStatsFields.Read(r, &v.DRAM) }},
	{Name: "energy", Read: func(r *jsonread.Reader, v *Result) { energyFields.Read(r, &v.Energy) }},
	{Name: "energy_pj", Read: func(r *jsonread.Reader, v *Result) { v.EnergyPJ = r.Float64() }},
	{Name: "ed2", Read: func(r *jsonread.Reader, v *Result) { v.ED2 = r.Float64() }},
	{Name: "timing", Read: func(r *jsonread.Reader, v *Result) { phaseTimingFields.Read(r, &v.Timing) }},
	{Name: "sharding", Read: func(r *jsonread.Reader, v *Result) {
		if r.ObjectStart() {
			r.Fail() // struct{} has no members
		}
		v.Sharding = &struct{}{}
	}},
}

// readHier reads the three-level hierarchy array; any other length is
// not canonical.
func readHier(r *jsonread.Reader, v *Result) {
	n := 0
	for more := r.ArrayStart(); more; more = r.ArrayNext() {
		if n == len(v.Hier) {
			r.Fail()
			return
		}
		cacheStatsFields.Read(r, &v.Hier[n])
		n++
	}
	if n != len(v.Hier) {
		r.Fail()
	}
}

// readMeta reads the per-kind map, keyed by Kind's text form.
func readMeta(r *jsonread.Reader, v *Result) {
	v.Meta = make(map[memlayout.Kind]KindResult, len(memlayout.MetaKinds))
	kr := new(KindResult) // one scratch value: what Read fills escapes
	for more := r.ObjectStart(); more; more = r.ObjectNext() {
		k, ok := kindNamed(r.Key())
		if _, dup := v.Meta[k]; !ok || dup {
			r.Fail()
			return
		}
		*kr = KindResult{}
		kindResultFields.Read(r, kr)
		v.Meta[k] = *kr
	}
}

// kindNamed returns the Kind whose text form is name, the names
// Kind.UnmarshalText accepts.
func kindNamed(name []byte) (memlayout.Kind, bool) {
	for k := memlayout.KindData; k <= memlayout.KindTree; k++ {
		if k.String() == string(name) {
			return k, true
		}
	}
	return 0, false
}

// readTreeLevels reads the per-level results; like encoding/json, an
// empty array decodes to an empty, non-nil slice.
func readTreeLevels(r *jsonread.Reader, v *Result) {
	v.TreeLevels = make([]KindResult, 0, 8)
	for more := r.ArrayStart(); more; more = r.ArrayNext() {
		v.TreeLevels = append(v.TreeLevels, KindResult{})
		kindResultFields.Read(r, &v.TreeLevels[len(v.TreeLevels)-1])
	}
}

var kindResultFields = jsonread.Fields[KindResult]{
	{Name: "accesses", Read: func(r *jsonread.Reader, v *KindResult) { v.Accesses = r.Uint64() }},
	{Name: "hits", Read: func(r *jsonread.Reader, v *KindResult) { v.Hits = r.Uint64() }},
	{Name: "misses", Read: func(r *jsonread.Reader, v *KindResult) { v.Misses = r.Uint64() }},
	{Name: "bypassed", Read: func(r *jsonread.Reader, v *KindResult) { v.Bypassed = r.Uint64() }},
	{Name: "mpki", Read: func(r *jsonread.Reader, v *KindResult) { v.MPKI = r.Float64() }},
}

var cacheStatsFields = jsonread.Fields[cache.Stats]{
	{Name: "Accesses", Read: func(r *jsonread.Reader, v *cache.Stats) { v.Accesses = r.Uint64() }},
	{Name: "Hits", Read: func(r *jsonread.Reader, v *cache.Stats) { v.Hits = r.Uint64() }},
	{Name: "Misses", Read: func(r *jsonread.Reader, v *cache.Stats) { v.Misses = r.Uint64() }},
	{Name: "PartialMiss", Read: func(r *jsonread.Reader, v *cache.Stats) { v.PartialMiss = r.Uint64() }},
	{Name: "Inserts", Read: func(r *jsonread.Reader, v *cache.Stats) { v.Inserts = r.Uint64() }},
	{Name: "Evictions", Read: func(r *jsonread.Reader, v *cache.Stats) { v.Evictions = r.Uint64() }},
	{Name: "DirtyEvicts", Read: func(r *jsonread.Reader, v *cache.Stats) { v.DirtyEvicts = r.Uint64() }},
}

var memTrafficFields = jsonread.Fields[engine.MemTraffic]{
	{Name: "DataReads", Read: func(r *jsonread.Reader, v *engine.MemTraffic) { v.DataReads = r.Uint64() }},
	{Name: "DataWrites", Read: func(r *jsonread.Reader, v *engine.MemTraffic) { v.DataWrites = r.Uint64() }},
	{Name: "CounterReads", Read: func(r *jsonread.Reader, v *engine.MemTraffic) { v.CounterReads = r.Uint64() }},
	{Name: "CounterWrites", Read: func(r *jsonread.Reader, v *engine.MemTraffic) { v.CounterWrites = r.Uint64() }},
	{Name: "HashReads", Read: func(r *jsonread.Reader, v *engine.MemTraffic) { v.HashReads = r.Uint64() }},
	{Name: "HashWrites", Read: func(r *jsonread.Reader, v *engine.MemTraffic) { v.HashWrites = r.Uint64() }},
	{Name: "TreeReads", Read: func(r *jsonread.Reader, v *engine.MemTraffic) { v.TreeReads = r.Uint64() }},
	{Name: "TreeWrites", Read: func(r *jsonread.Reader, v *engine.MemTraffic) { v.TreeWrites = r.Uint64() }},
}

var dramStatsFields = jsonread.Fields[dram.Stats]{
	{Name: "Reads", Read: func(r *jsonread.Reader, v *dram.Stats) { v.Reads = r.Uint64() }},
	{Name: "Writes", Read: func(r *jsonread.Reader, v *dram.Stats) { v.Writes = r.Uint64() }},
	{Name: "RowHits", Read: func(r *jsonread.Reader, v *dram.Stats) { v.RowHits = r.Uint64() }},
	{Name: "RowMisses", Read: func(r *jsonread.Reader, v *dram.Stats) { v.RowMisses = r.Uint64() }},
	{Name: "EnergyPJ", Read: func(r *jsonread.Reader, v *dram.Stats) { v.EnergyPJ = r.Float64() }},
	{Name: "BusyCycles", Read: func(r *jsonread.Reader, v *dram.Stats) { v.BusyCycles = r.Uint64() }},
}

var energyFields = jsonread.Fields[energy.Account]{
	{Name: "CorePJ", Read: func(r *jsonread.Reader, v *energy.Account) { v.CorePJ = r.Float64() }},
	{Name: "SRAMPJ", Read: func(r *jsonread.Reader, v *energy.Account) { v.SRAMPJ = r.Float64() }},
	{Name: "DRAMPJ", Read: func(r *jsonread.Reader, v *energy.Account) { v.DRAMPJ = r.Float64() }},
}

var phaseTimingFields = jsonread.Fields[PhaseTiming]{
	{Name: "setup_ns", Read: func(r *jsonread.Reader, v *PhaseTiming) { v.Setup = time.Duration(r.Int64()) }},
	{Name: "warmup_ns", Read: func(r *jsonread.Reader, v *PhaseTiming) { v.Warmup = time.Duration(r.Int64()) }},
	{Name: "measure_ns", Read: func(r *jsonread.Reader, v *PhaseTiming) { v.Measure = time.Duration(r.Int64()) }},
	{Name: "total_ns", Read: func(r *jsonread.Reader, v *PhaseTiming) { v.Total = time.Duration(r.Int64()) }},
}
