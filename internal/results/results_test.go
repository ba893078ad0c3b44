package results

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/maps-sim/mapsim/internal/cache/policy"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/sim"
)

func TestKeyStability(t *testing.T) {
	a, err := KeyFor(sim.Config{Benchmark: "fft"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := KeyFor(sim.Config{Benchmark: "fft"})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("identical configs hash differently: %s vs %s", a, b)
	}

	// The well-known address of the default fft run. If this changes,
	// either the canonicalization rules changed (update DESIGN.md and
	// this constant together) or hashing accidentally became
	// non-deterministic.
	const want = Key("e609d25bf2aff5c6ddad55d63cc3b73d81adab2179fe9ed04747edc13b87209b")
	if a != want {
		t.Errorf("canonical hash changed: got %s, want %s", a, want)
	}
}

func TestKeyDefaultsEquivalence(t *testing.T) {
	implicit, err := KeyFor(sim.Config{Benchmark: "fft"})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := KeyFor(sim.Config{
		Benchmark:    "fft",
		Instructions: 2_000_000,
		Warmup:       200_000,
		Seed:         1,
		BaseCPI:      1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if implicit != explicit {
		t.Fatal("omitted defaults and explicit defaults must share one address")
	}
}

func TestKeySensitivity(t *testing.T) {
	base := sim.Config{Benchmark: "fft", Secure: true,
		Meta: &metacache.Config{Size: 64 << 10, Ways: 8}}
	k0, err := KeyFor(base)
	if err != nil {
		t.Fatal(err)
	}
	variants := []sim.Config{
		{Benchmark: "canneal", Secure: true, Meta: &metacache.Config{Size: 64 << 10, Ways: 8}},
		{Benchmark: "fft", Secure: true, Instructions: 1_000_000, Meta: &metacache.Config{Size: 64 << 10, Ways: 8}},
		{Benchmark: "fft", Secure: true, Seed: 7, Meta: &metacache.Config{Size: 64 << 10, Ways: 8}},
		{Benchmark: "fft", Meta: &metacache.Config{Size: 64 << 10, Ways: 8}},                                                // insecure
		{Benchmark: "fft", Secure: true, Meta: &metacache.Config{Size: 128 << 10, Ways: 8}},                                 // bigger cache
		{Benchmark: "fft", Secure: true, Meta: &metacache.Config{Size: 64 << 10, Ways: 8, PartialWrites: true}},             // partial writes
		{Benchmark: "fft", Secure: true, Meta: &metacache.Config{Size: 64 << 10, Ways: 8, Content: metacache.CountersOnly}}, // content policy
		{Benchmark: "fft", Secure: true, Speculation: true, Meta: &metacache.Config{Size: 64 << 10, Ways: 8}},
		{Benchmark: "fft", Secure: true},
	}
	seen := map[Key]int{k0: -1}
	for i, v := range variants {
		k, err := KeyFor(v)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %d collides with variant %d", i, prev)
		}
		seen[k] = i
	}
}

func TestKeyRejectsStatefulConfigs(t *testing.T) {
	if _, err := KeyFor(sim.Config{Benchmark: "fft",
		Meta: &metacache.Config{Size: 64 << 10, Ways: 8, Policy: policy.NewLRU()}}); err == nil {
		t.Error("want error for stateful Meta.Policy")
	}
	if _, err := KeyFor(sim.Config{}); err == nil {
		t.Error("want error for missing benchmark")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New(2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok { // refresh a: b is now LRU
		t.Fatal("a missing")
	}
	c.Put("c", 3) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Fatal("a should have survived eviction")
	}
	if v, ok := c.Get("c"); !ok || v.(int) != 3 {
		t.Fatal("c should be present")
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 || s.Capacity != 2 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestCacheCounters(t *testing.T) {
	c := New(4)
	c.Get("nope")
	c.Put("k", "v")
	c.Get("k")
	c.Get("k")
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", s.Hits, s.Misses)
	}
	if got := s.HitRatio(); got < 0.66 || got > 0.67 {
		t.Fatalf("hit ratio %v, want ~2/3", got)
	}
	// Re-putting an existing key refreshes, never duplicates.
	c.Put("k", "v2")
	if c.Len() != 1 {
		t.Fatalf("len %d after re-put, want 1", c.Len())
	}
	if v, _ := c.Get("k"); v.(string) != "v2" {
		t.Fatal("re-put did not refresh value")
	}
}

func TestCacheMinimumCapacity(t *testing.T) {
	c := New(0)
	c.Put("a", 1)
	c.Put("b", 2)
	if c.Len() != 1 {
		t.Fatalf("len %d, want 1 (capacity clamps to 1)", c.Len())
	}
}

func TestCacheSizeBytesAccounting(t *testing.T) {
	c := New(2)
	if s := c.Stats(); s.SizeBytes != 0 {
		t.Fatalf("empty cache reports %d bytes", s.SizeBytes)
	}
	small := "x" // 3 JSON bytes: "x"
	big := map[string]int{"aaaaaaaa": 1, "bbbbbbbb": 2}
	c.Put("a", small)
	after1 := c.Stats().SizeBytes
	if after1 <= 0 {
		t.Fatalf("SizeBytes %d after one Put, want > 0", after1)
	}
	c.Put("b", big)
	after2 := c.Stats().SizeBytes
	if after2 <= after1 {
		t.Fatalf("SizeBytes %d did not grow past %d", after2, after1)
	}
	// Overwrite shrinks: replace the big value with a small one.
	c.Put("b", small)
	if got := c.Stats().SizeBytes; got != 2*after1 {
		t.Fatalf("SizeBytes %d after overwrite, want %d", got, 2*after1)
	}
	// Eviction releases the evicted entry's bytes.
	c.Put("c", small) // evicts LRU ("a")
	if got := c.Stats().SizeBytes; got != 2*after1 {
		t.Fatalf("SizeBytes %d after eviction, want %d", got, 2*after1)
	}
	// Peek observes without perturbing counters or LRU order.
	preStats := c.Stats()
	if _, _, ok := c.Peek("c"); !ok {
		t.Fatal("Peek missed a present key")
	}
	if _, _, ok := c.Peek("absent"); ok {
		t.Fatal("Peek invented a value")
	}
	post := c.Stats()
	if post.Hits != preStats.Hits || post.Misses != preStats.Misses {
		t.Fatalf("Peek moved counters: %+v -> %+v", preStats, post)
	}
}

// TestCacheKeepsEncoding: Put keeps and returns json.Marshal(value),
// PutEncoded keeps the bytes it is given, Peek returns the kept bytes,
// and SizeBytes is their total length; an unencodable value keeps none.
func TestCacheKeepsEncoding(t *testing.T) {
	c := New(4)
	v := &struct{ A string }{"<x>&"}
	want, _ := json.Marshal(v)
	if got := c.Put("a", v); !bytes.Equal(got, want) {
		t.Fatalf("Put returned %s, want %s", got, want)
	}
	if cur, data, ok := c.Peek("a"); !ok || cur != any(v) || !bytes.Equal(data, want) {
		t.Fatalf("Peek = %v %s %v, want the value and %s", cur, data, ok, want)
	}
	c.PutEncoded("b", 7, []byte("7"))
	if _, data, _ := c.Peek("b"); string(data) != "7" {
		t.Fatalf("PutEncoded kept %q, want 7", data)
	}
	if got := c.Put("c", func() {}); got != nil {
		t.Fatalf("unencodable value kept %q", got)
	}
	if got := c.Stats().SizeBytes; got != int64(len(want)+1) {
		t.Fatalf("SizeBytes %d, want %d", got, len(want)+1)
	}
}
