package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/maps-sim/mapsim/internal/faults"
	"github.com/maps-sim/mapsim/internal/frame"
	"github.com/maps-sim/mapsim/internal/results"
	"github.com/maps-sim/mapsim/internal/sim"
)

// key derives a syntactically valid content address from a label.
func key(label string) results.Key {
	sum := sha256.Sum256([]byte(label))
	return results.Key(hex.EncodeToString(sum[:]))
}

// runResult builds a small but non-trivial result to store.
func runResult(bench string, n uint64) *sim.Result {
	return &sim.Result{
		Benchmark:    bench,
		Instructions: n,
		Cycles:       3 * n,
		IPC:          1.0 / 3.0,
		LLCMPKI:      7.25,
		EnergyPJ:     123456.789,
	}
}

func mustOpen(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func flush(t *testing.T, s *Store) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

func TestValidKey(t *testing.T) {
	good := key("x")
	if !ValidKey(good) {
		t.Fatalf("ValidKey(%q) = false", good)
	}
	for _, bad := range []string{
		"", "abc", string(good)[:63], string(good) + "0",
		"../../../../etc/passwd/////////////////////////////////////////",
		string(good[:63]) + "G", string(good[:63]) + "/",
	} {
		if ValidKey(results.Key(bad)) {
			t.Errorf("ValidKey(%q) = true", bad)
		}
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	k := key("round-trip")
	want := runResult("fft", 1000)
	data, err := Encode(k, want)
	if err != nil {
		t.Fatal(err)
	}
	env, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if env.Key != string(k) || env.Kind != KindRun || env.Version != Version {
		t.Fatalf("bad frame: %+v", env)
	}
	// Encode frames by hand; its bytes must be json.Marshal's.
	if std, err := json.Marshal(env); err != nil || !bytes.Equal(data, std) {
		t.Fatalf("Encode differs from json.Marshal of its envelope:\n%s\n%s", data, std)
	}
	// Decode reads Encode's layout field by field, without scanning
	// the payload; it must read what general JSON decoding reads.
	var std Envelope
	if err := json.Unmarshal(data, &std); err != nil || !reflect.DeepEqual(*env, std) {
		t.Fatalf("field-by-field decode differs from json.Unmarshal (%v)", err)
	}
	v, err := env.Value()
	if err != nil {
		t.Fatal(err)
	}
	if got := v.(*sim.Result); !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mutated the result:\ngot  %+v\nwant %+v", got, want)
	}

	// Suites frame too.
	suite := &sim.SuiteResult{
		PerBench:   map[string]*sim.Result{"fft": want},
		Order:      []string{"fft"},
		GeomeanIPC: 1.0 / 3.0,
	}
	data, err = Encode(k, suite)
	if err != nil {
		t.Fatal(err)
	}
	env, err = Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if env.Kind != KindSuite {
		t.Fatalf("kind %q, want suite", env.Kind)
	}
	v, err = env.Value()
	if err != nil {
		t.Fatal(err)
	}
	if got := v.(*sim.SuiteResult); !reflect.DeepEqual(got, suite) {
		t.Fatalf("suite round trip mutated the result")
	}

	// Unknown types refuse to encode.
	if _, err := Encode(k, "not a result"); err == nil {
		t.Fatal("Encode accepted a string")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	k := key("corrupt")
	data, err := Encode(k, runResult("fft", 1))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"truncated":  data[:len(data)/2],
		"empty":      nil,
		"not json":   []byte("hello"),
		"junk tail":  append(append([]byte{}, data...), '}'),
		"zero value": []byte("{}"),
	}
	// A flipped payload byte must trip the checksum.
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	env.Payload[10] ^= 0xff
	flipped, _ := json.Marshal(env)
	cases["bit flip"] = flipped
	// Version skew is corruption, not a guess.
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	env.Version = Version + 1
	skewed, _ := json.Marshal(env)
	cases["version skew"] = skewed

	for name, bad := range cases {
		if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestGetPutAcrossReopen is the persistence contract: what one
// process stores, the next one (fresh memory tier) reads back
// identically from disk.
func TestGetPutAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	k := key("persist")
	want := runResult("libquantum", 50000)

	s1 := mustOpen(t, Options{Dir: dir, Memory: results.New(8)})
	s1.Put(k, want)
	flush(t, s1)
	s1.Close()

	s2 := mustOpen(t, Options{Dir: dir, Memory: results.New(8)})
	if st := s2.Stats(); st.DiskEntries != 1 || st.DiskBytes <= 0 {
		t.Fatalf("reopen indexed %d entries / %d bytes, want 1 / >0", st.DiskEntries, st.DiskBytes)
	}
	v, ok := s2.Get(context.Background(), k)
	if !ok {
		t.Fatal("Get missed after reopen")
	}
	if got := v.(*sim.Result); !reflect.DeepEqual(got, want) {
		t.Fatalf("disk round trip mutated the result:\ngot  %+v\nwant %+v", got, want)
	}
	st := s2.Stats()
	if st.DiskHits != 1 || st.MemHits != 0 {
		t.Fatalf("stats after disk hit: %+v", st)
	}
	// The hit back-filled memory: the next Get is a memory hit.
	if _, ok := s2.Get(context.Background(), k); !ok {
		t.Fatal("second Get missed")
	}
	if st := s2.Stats(); st.MemHits != 1 {
		t.Fatalf("second Get did not hit memory: %+v", st)
	}
}

// newestSegment returns the path of the highest-numbered segment
// under dir.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, segmentsDir))
	if err != nil || len(ents) == 0 {
		t.Fatalf("no segments under %s (%v)", dir, err)
	}
	return filepath.Join(dir, segmentsDir, ents[len(ents)-1].Name())
}

// segmentFiles returns how many segment files dir holds and their
// total bytes.
func segmentFiles(t *testing.T, dir string) (int, int64) {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, segmentsDir))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return len(ents), total
}

// TestCorruptEntryQuarantined: a damaged record costs one recompute
// and a quarantine copy, never an error or a wrong result.
func TestCorruptEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	k := key("to-corrupt")
	s1 := mustOpen(t, Options{Dir: dir, Memory: results.New(8)})
	s1.Put(k, runResult("fft", 10))
	flush(t, s1)
	s1.Close()

	// Flip one byte inside the record's envelope — the bit rot a
	// failing disk could leave.
	path := newestSegment(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-10] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, Options{Dir: dir, Memory: results.New(8)})
	if v, ok := s2.Get(context.Background(), k); ok {
		t.Fatalf("Get returned %v from a corrupt entry", v)
	}
	st := s2.Stats()
	if st.Quarantined != 1 || st.Misses != 1 || st.DiskEntries != 0 {
		t.Fatalf("stats after corrupt read: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, string(k)+".json")); err != nil {
		t.Fatalf("corrupt entry not quarantined: %v", err)
	}
	// A fresh Put heals the slot.
	want := runResult("fft", 10)
	s2.Put(k, want)
	flush(t, s2)
	s2.Close()
	s3 := mustOpen(t, Options{Dir: dir, Memory: results.New(8)})
	if v, ok := s3.Get(context.Background(), k); !ok || !reflect.DeepEqual(v, want) {
		t.Fatalf("healed entry not served: ok=%v", ok)
	}
}

// TestCrashMidWriteInvisible is the torn-append contract: a process
// killed mid-append leaves half a record at the end of its segment —
// never a visible entry — and the next Open cuts it off.
func TestCrashMidWriteInvisible(t *testing.T) {
	dir := t.TempDir()
	kGood, kTorn := key("good"), key("torn")
	s1 := mustOpen(t, Options{Dir: dir, Memory: results.New(8)})
	s1.Put(kGood, runResult("fft", 20))
	flush(t, s1)
	s1.Close()

	// Fake the crash: the first half of kTorn's record appended to
	// the newest segment, the rest never written.
	env, err := Encode(kTorn, runResult("fft", 21))
	if err != nil {
		t.Fatal(err)
	}
	rec := frame.Append(nil, []byte(kTorn), env)
	path := newestSegment(t, dir)
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(append([]byte{}, intact...), rec[:len(rec)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, Options{Dir: dir, Memory: results.New(8)})
	if st := s2.Stats(); st.DiskEntries != 1 {
		t.Fatalf("indexed %d entries, want 1 (the torn record must be invisible)", st.DiskEntries)
	}
	if _, ok := s2.Get(context.Background(), kTorn); ok {
		t.Fatal("Get served the torn write")
	}
	if _, ok := s2.Get(context.Background(), kGood); !ok {
		t.Fatal("good entry lost")
	}
	if info, err := os.Stat(path); err != nil || info.Size() != int64(len(intact)) {
		t.Fatalf("torn tail not cut at open: %v", err)
	}
	if st := s2.Stats(); st.Quarantined != 0 {
		t.Fatalf("torn tail counted as quarantine: %+v", st)
	}
}

// TestReopenLastWriteWins: when a key has records in two segments,
// the later one is what a reopened store serves.
func TestReopenLastWriteWins(t *testing.T) {
	dir := t.TempDir()
	k := key("rewritten")
	first, second := runResult("fft", 1000), runResult("fft", 2000)
	env, err := Encode(k, first)
	if err != nil {
		t.Fatal(err)
	}
	rec := int64(frame.HeaderSize + keyLen + len(env))
	// A cap that seals a segment after three and a half records, so
	// four puts rotate and the segment left behind stays mostly live
	// (compaction leaves it alone).
	opts := Options{Dir: dir, Memory: results.New(8), MaxBytes: 8 * (3*rec + rec/2)}
	s1 := mustOpen(t, opts)
	s1.Put(k, first)
	for i := 0; i < 3; i++ {
		s1.Put(key(fmt.Sprintf("filler-%d", i)), runResult("fft", uint64(1001+i)))
	}
	s1.Put(k, second)
	flush(t, s1)
	s1.Close()
	if n, _ := segmentFiles(t, dir); n != 2 {
		t.Fatalf("%d segments, want 2 (the puts must rotate once)", n)
	}

	s2 := mustOpen(t, opts)
	v, ok := s2.Get(context.Background(), k)
	if !ok || !reflect.DeepEqual(v, second) {
		t.Fatalf("reopened store served %+v (ok=%v), want the second write", v, ok)
	}
}

// TestCompactionShrinksSegments: a cap below what the segments hold
// evicts, then reclaims the emptied segment, and every survivor is
// still served after a reopen.
func TestCompactionShrinksSegments(t *testing.T) {
	dir := t.TempDir()
	want := map[results.Key]*sim.Result{}
	s1 := mustOpen(t, Options{Dir: dir, Memory: results.New(8)})
	for i := 0; i < 12; i++ {
		k := key(fmt.Sprintf("compact-%d", i))
		want[k] = runResult("fft", uint64(100+i))
		s1.Put(k, want[k])
	}
	flush(t, s1)
	s1.Close()
	_, before := segmentFiles(t, dir)

	opts := Options{Dir: dir, Memory: results.New(8), MaxBytes: before / 3}
	s2 := mustOpen(t, opts)
	if st := s2.Stats(); st.GCEvictions == 0 {
		t.Fatalf("open-time GC evicted nothing: %+v", st)
	}
	if _, after := segmentFiles(t, dir); after >= before {
		t.Fatalf("segments hold %d bytes after GC, %d before", after, before)
	}
	s2.dmu.Lock()
	var survivors []results.Key
	for k := range s2.entries {
		survivors = append(survivors, k)
	}
	s2.dmu.Unlock()
	if len(survivors) == 0 {
		t.Fatal("GC evicted every entry")
	}
	s2.Close()

	s3 := mustOpen(t, opts)
	for _, k := range survivors {
		if v, ok := s3.Get(context.Background(), k); !ok || !reflect.DeepEqual(v, want[k]) {
			t.Fatalf("survivor %s not served after reopen (ok=%v)", k, ok)
		}
	}
	if st := s3.Stats(); st.DiskHits != uint64(len(survivors)) || st.Quarantined != 0 {
		t.Fatalf("stats after reading survivors: %+v", st)
	}
}

// TestLegacyObjectsIgnored: a directory an earlier build filled with
// one file per entry opens cleanly; the old entries are not served,
// one warning says so, and the files stay where they were.
func TestLegacyObjectsIgnored(t *testing.T) {
	dir := t.TempDir()
	k := key("legacy")
	data, err := Encode(k, runResult("fft", 3))
	if err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, "objects", string(k)[:2], string(k)+".json")
	if err := os.MkdirAll(filepath.Dir(legacy), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(legacy, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var logs bytes.Buffer
	s := mustOpen(t, Options{Dir: dir, Memory: results.New(8), Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if _, ok := s.Get(context.Background(), k); ok {
		t.Fatal("Get served a legacy objects/ entry")
	}
	if st := s.Stats(); st.DiskEntries != 0 {
		t.Fatalf("legacy entry indexed: %+v", st)
	}
	if n := strings.Count(logs.String(), "level=WARN"); n != 1 {
		t.Fatalf("%d warnings, want 1:\n%s", n, logs.String())
	}
	if got, err := os.ReadFile(legacy); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("legacy entry disturbed: %v", err)
	}
}

// TestGetsRaceCompaction: lookups running while the writer appends,
// evicts and compacts never serve a wrong value and never count a
// corrupt or failed read.
func TestGetsRaceCompaction(t *testing.T) {
	env, err := Encode(key("size"), runResult("fft", 1000))
	if err != nil {
		t.Fatal(err)
	}
	rec := int64(frame.HeaderSize + keyLen + len(env))
	// Segments seal at two records and the cap holds sixteen, so
	// every round of puts evicts and compacts.
	s := mustOpen(t, Options{Dir: t.TempDir(), Memory: results.New(1), MaxBytes: 16 * rec})
	keys := make([]results.Key, 64)
	want := make(map[results.Key]*sim.Result, len(keys))
	for i := range keys {
		keys[i] = key(fmt.Sprintf("race-%d", i))
		want[keys[i]] = runResult("fft", uint64(1000+i))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := keys[i%len(keys)]
				if v, ok := s.Get(context.Background(), k); ok && !reflect.DeepEqual(v, want[k]) {
					t.Errorf("Get(%s) served a value stored under another key", k)
					return
				}
			}
		}(g)
	}
	for round := 0; round < 4; round++ {
		for _, k := range keys {
			s.Put(k, want[k])
		}
		flush(t, s)
	}
	close(stop)
	wg.Wait()
	if st := s.Stats(); st.Quarantined != 0 || st.DiskErrors != 0 || st.GCEvictions == 0 {
		t.Fatalf("stats after racing lookups: %+v", st)
	}
}

// TestGCEvictsLeastRecentlyAccessed pins the GC's victim order: the
// entry nobody touched goes first, and the tier lands under the cap.
func TestGCEvictsLeastRecentlyAccessed(t *testing.T) {
	dir := t.TempDir()
	// Memory tier of one entry, so Gets actually reach the disk tier
	// and advance the LRA clock.
	s := mustOpen(t, Options{Dir: dir, Memory: results.New(1)})
	keys := make([]results.Key, 4)
	for i := range keys {
		keys[i] = key(fmt.Sprintf("gc-%d", i))
		s.Put(keys[i], runResult("fft", uint64(1000+i)))
	}
	flush(t, s)
	// Touch everything except keys[1].
	for _, i := range []int{0, 2, 3} {
		if _, ok := s.Get(context.Background(), keys[i]); !ok {
			t.Fatalf("warm-up Get(%d) missed", i)
		}
	}
	before := s.Stats()
	if before.DiskEntries != 4 {
		t.Fatalf("disk entries %d, want 4", before.DiskEntries)
	}
	// Shrink the budget below current occupancy and let the GC run.
	s.maxBytes = before.DiskBytes - 1
	s.gc()
	after := s.Stats()
	if after.DiskBytes > s.maxBytes {
		t.Fatalf("GC left %d bytes above the %d cap", after.DiskBytes, s.maxBytes)
	}
	if after.GCEvictions == 0 {
		t.Fatal("GC evicted nothing")
	}
	if _, ok := s.Get(context.Background(), keys[1]); ok {
		t.Fatal("least-recently-accessed entry survived GC")
	}
	// The most recently touched entry must have survived.
	if _, ok := s.Get(context.Background(), keys[3]); !ok {
		t.Fatal("most-recently-accessed entry was evicted")
	}
}

// TestOpenGCEnforcesCap: a store reopened over a too-large directory
// trims itself at open, before serving anything.
func TestOpenGCEnforcesCap(t *testing.T) {
	dir := t.TempDir()
	s1 := mustOpen(t, Options{Dir: dir, Memory: results.New(8)})
	for i := 0; i < 6; i++ {
		s1.Put(key(fmt.Sprintf("cap-%d", i)), runResult("fft", uint64(i)))
	}
	flush(t, s1)
	total := s1.Stats().DiskBytes
	s1.Close()

	s2 := mustOpen(t, Options{Dir: dir, Memory: results.New(8), MaxBytes: total / 2})
	st := s2.Stats()
	if st.DiskBytes > total/2 {
		t.Fatalf("open left %d bytes above the %d cap", st.DiskBytes, total/2)
	}
	if st.GCEvictions == 0 || st.DiskEntries >= 6 {
		t.Fatalf("open-time GC did not trim: %+v", st)
	}
}

// TestDiskFaultsDegradeToMemory: armed store.put / store.get faults
// (the disk-full and dying-disk drills) cost persistence, never
// correctness or availability.
func TestDiskFaultsDegradeToMemory(t *testing.T) {
	defer faults.Reset()
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, Memory: results.New(8)})
	k := key("faulty")
	want := runResult("fft", 77)

	if err := faults.P("store.put").Arm(faults.Injection{Mode: faults.ModeErr}); err != nil {
		t.Fatal(err)
	}
	s.Put(k, want)
	flush(t, s)
	st := s.Stats()
	if st.DroppedDiskPuts != 1 || st.DiskPuts != 0 || st.DiskEntries != 0 {
		t.Fatalf("stats under store.put fault: %+v", st)
	}
	// The memory tier still serves.
	if v, ok := s.Get(context.Background(), k); !ok || !reflect.DeepEqual(v, want) {
		t.Fatalf("memory tier lost the result under a disk fault (ok=%v)", ok)
	}
	faults.Reset()

	// Now a real disk entry, with reads failing.
	s.Put(k, want)
	flush(t, s)
	s2 := mustOpen(t, Options{Dir: dir, Memory: results.New(8)})
	if err := faults.P("store.get").Arm(faults.Injection{Mode: faults.ModeErr}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(context.Background(), k); ok {
		t.Fatal("Get served through an armed store.get fault")
	}
	st = s2.Stats()
	if st.DiskErrors != 1 || st.Misses != 1 || st.Quarantined != 0 {
		t.Fatalf("stats under store.get fault: %+v", st)
	}
	faults.Reset()
	// Disarmed, the entry is intact — a flaky disk never destroys data.
	if v, ok := s2.Get(context.Background(), k); !ok || !reflect.DeepEqual(v, want) {
		t.Fatalf("entry damaged by read-fault drill (ok=%v)", ok)
	}
}

func TestPeerFill(t *testing.T) {
	// Peer A: a store with the result, serving envelopes.
	remote := mustOpen(t, Options{Memory: results.New(8)})
	k := key("shared")
	want := runResult("fft", 4242)
	remote.Put(k, want)

	fetches := 0
	peer := Peer{Name: "A", Fetch: func(ctx context.Context, key results.Key) ([]byte, error) {
		fetches++
		if raw, ok := remote.Envelope(key); ok {
			return raw, nil
		}
		return nil, errors.New("not found")
	}}

	// Peer B: empty, disk-backed, with A configured.
	dir := t.TempDir()
	local := mustOpen(t, Options{Dir: dir, Memory: results.New(8), Peers: []Peer{peer}})
	v, ok := local.Get(context.Background(), k)
	if !ok {
		t.Fatal("peer fill missed")
	}
	if !reflect.DeepEqual(v, want) {
		t.Fatalf("peer fill mutated the result:\ngot  %+v\nwant %+v", v, want)
	}
	if fetches != 1 {
		t.Fatalf("fetched %d times, want 1", fetches)
	}
	st := local.Stats()
	if st.PeerFills != 1 || st.Misses != 0 {
		t.Fatalf("stats after peer fill: %+v", st)
	}
	// The fill back-filled memory AND disk: no more peer traffic.
	flush(t, local)
	if st := local.Stats(); st.DiskEntries != 1 {
		t.Fatalf("peer fill not persisted: %+v", st)
	}
	if _, ok := local.Get(context.Background(), k); !ok {
		t.Fatal("refetch missed")
	}
	if fetches != 1 {
		t.Fatalf("refetch went back to the peer (%d fetches)", fetches)
	}
	// An unknown key tries the peer, then misses gracefully.
	if _, ok := local.Get(context.Background(), key("absent")); ok {
		t.Fatal("Get invented a result")
	}
	if st := local.Stats(); st.Misses != 1 || st.PeerErrors != 1 {
		t.Fatalf("stats after peer miss: %+v", st)
	}
}

// TestPeerPathologies: garbage, wrong-key answers, hangs, and armed
// store.peer faults all degrade to recompute, never to a wrong
// result or a wedged lookup.
func TestPeerPathologies(t *testing.T) {
	defer faults.Reset()
	k := key("pathological")
	good := runResult("fft", 9)
	goodRaw, err := Encode(key("some-other-key"), good)
	if err != nil {
		t.Fatal(err)
	}
	garbage := Peer{Name: "garbage", Fetch: func(context.Context, results.Key) ([]byte, error) {
		return []byte("{not json"), nil
	}}
	wrongKey := Peer{Name: "wrong-key", Fetch: func(context.Context, results.Key) ([]byte, error) {
		return goodRaw, nil
	}}
	hung := Peer{Name: "hung", Fetch: func(ctx context.Context, _ results.Key) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	s := mustOpen(t, Options{
		Memory:      results.New(8),
		Peers:       []Peer{garbage, wrongKey, hung},
		PeerTimeout: 20 * time.Millisecond,
	})
	start := time.Now()
	if _, ok := s.Get(context.Background(), k); ok {
		t.Fatal("Get served a pathological peer answer")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hung peer wedged the lookup for %v", elapsed)
	}
	if st := s.Stats(); st.PeerErrors != 3 || st.Misses != 1 {
		t.Fatalf("stats after pathological peers: %+v", st)
	}

	// An armed store.peer fault (fleet partition drill) skips the
	// fetch entirely.
	faults.Reset()
	if err := faults.P("store.peer").Arm(faults.Injection{Mode: faults.ModeErr}); err != nil {
		t.Fatal(err)
	}
	called := false
	s2 := mustOpen(t, Options{Memory: results.New(8), Peers: []Peer{{
		Name:  "unreachable",
		Fetch: func(context.Context, results.Key) ([]byte, error) { called = true; return nil, nil },
	}}})
	if _, ok := s2.Get(context.Background(), k); ok || called {
		t.Fatalf("store.peer fault leaked through (ok=%v called=%v)", ok, called)
	}
	if st := s2.Stats(); st.PeerErrors != 1 {
		t.Fatalf("stats under store.peer fault: %+v", st)
	}
}

func TestPutAfterCloseDrops(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, Memory: results.New(8)})
	s.Close()
	s.Close() // idempotent
	k := key("late")
	s.Put(k, runResult("fft", 1)) // must not panic
	if st := s.Stats(); st.DroppedDiskPuts != 1 {
		t.Fatalf("late Put not counted as dropped: %+v", st)
	}
	// Memory still took it.
	if _, ok := s.Get(context.Background(), k); !ok {
		t.Fatal("late Put lost from memory tier")
	}
}

// TestEnvelopeServesLocalOnly: Envelope answers from memory and disk
// but never recurses into peers, and rejects hostile keys.
func TestEnvelopeServesLocalOnly(t *testing.T) {
	recursed := false
	s := mustOpen(t, Options{Memory: results.New(8), Peers: []Peer{{
		Name:  "loop",
		Fetch: func(context.Context, results.Key) ([]byte, error) { recursed = true; return nil, nil },
	}}})
	k := key("local")
	want := runResult("fft", 5)
	s.Put(k, want)
	raw, ok := s.Envelope(k)
	if !ok {
		t.Fatal("Envelope missed a memory-tier entry")
	}
	env, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := env.Value(); err != nil || !reflect.DeepEqual(v, want) {
		t.Fatalf("Envelope frame does not decode to the stored value: %v", err)
	}
	if _, ok := s.Envelope(key("missing")); ok || recursed {
		t.Fatalf("Envelope recursed into peers (ok=%v recursed=%v)", ok, recursed)
	}
	if _, ok := s.Envelope(results.Key("../sneaky")); ok {
		t.Fatal("Envelope accepted a malformed key")
	}
	// Serving a peer must not perturb the memory tier's counters.
	if cs := s.Memory().Stats(); cs.Hits != 0 || cs.Misses != 0 {
		t.Fatalf("Envelope counted against cache stats: %+v", cs)
	}
}
