package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/maps-sim/mapsim/internal/jobs"
	"github.com/maps-sim/mapsim/internal/results"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/store"
	"github.com/maps-sim/mapsim/internal/sweep"
)

// encoderBytes is what writeJSON's json.Encoder writes for v.
func encoderBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// jsonFields lists struct type t's members as encoding/json sees
// them, in encoding order: key, tag options and Go type, with
// embedded structs flattened.
func jsonFields(t reflect.Type) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := f.Tag.Get("json")
		switch {
		case f.Anonymous && tag == "":
			out = append(out, jsonFields(f.Type)...)
		case !f.IsExported() || tag == "-":
		default:
			name, opts, _ := strings.Cut(tag, ",")
			out = append(out, name+","+opts+" "+f.Type.String())
		}
	}
	return out
}

// TestReplyWriterKnowsEveryField: the reply writer spells out the
// members of sweep.Result, sweep.PointResult and JobResult by hand, so
// a field added, renamed, retyped or made omitempty must fail here
// until the writer follows it.
func TestReplyWriterKnowsEveryField(t *testing.T) {
	for _, c := range []struct {
		v    any
		want []string
	}{
		{sweep.Result{}, []string{
			"points, []sweep.PointResult", "total, int", "done, int", "deduped, int",
			"geomeans,omitempty []sweep.AxisGeomean", "wall_ns, time.Duration",
		}},
		{sweep.PointResult{}, []string{
			"index, int", "benchmark, string", "secure, bool",
			"llc_bytes,omitempty int", "meta_bytes,omitempty int", "content,omitempty string",
			"policy,omitempty string", "partition,omitempty string", "partial_writes,omitempty bool",
			"result, *sim.Result", "cached,omitempty bool", "worker,omitempty string",
		}},
		{JobResult{}, []string{
			"id, string", "type, string", "run,omitempty *sim.Result",
		}},
	} {
		if got := jsonFields(reflect.TypeOf(c.v)); !slices.Equal(got, c.want) {
			t.Errorf("%T members changed; update reply.go, then this list:\n got %q\nwant %q", c.v, got, c.want)
		}
	}
}

// getBody fetches path, requiring 200.
func getBody(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %v: %s", path, resp.StatusCode, err, body)
	}
	return body
}

// checkSweepReply fetches sweep id's result and requires it to be
// byte-identical to json.Encoder's encoding of the server's own
// sweep.Result. It returns how many points the reply could splice: those
// whose Result is the exact value the memory tier holds under its key.
func checkSweepReply(t *testing.T, s *Server, ts *httptest.Server, id string) (spliced int) {
	t.Helper()
	j, ok := s.sweepByID(id)
	if !ok {
		t.Fatalf("no sweep %s", id)
	}
	got := getBody(t, ts, "/v1/sweeps/"+id+"/result")
	j.mu.Lock()
	res := j.result
	j.mu.Unlock()
	if want := encoderBytes(t, res); !bytes.Equal(got, want) {
		t.Fatalf("sweep %s reply differs from encoding/json's:\n got %s\nwant %s", id, got, want)
	}
	for i, p := range res.Points {
		if data := s.store.Encoded(j.keys[i], p.Result); data != nil {
			if want, _ := json.Marshal(p.Result); !bytes.Equal(data, want) {
				t.Fatalf("point %d: kept bytes differ from json.Marshal of the value", i)
			}
			spliced++
		}
	}
	return spliced
}

// TestSweepReplyBornDone: a sweep the store answers whole splices every
// point's kept bytes into a reply equal to encoding/json's.
func TestSweepReplyBornDone(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, CacheEntries: 64})
	cold, _ := postSweep(t, ts, sweepBody)
	waitSweepDone(t, ts, cold.ID)
	st, _ := postSweep(t, ts, sweepBody)
	if st.State != jobs.StateDone {
		t.Fatalf("resubmit is %s, want born done", st.State)
	}
	for _, id := range []string{cold.ID, st.ID} {
		if n := checkSweepReply(t, s, ts, id); n != st.Total {
			t.Fatalf("sweep %s spliced %d of %d points", id, n, st.Total)
		}
	}
}

// TestSweepReplyPartlyStored: a sweep with stored and simulated points
// splices both kinds.
func TestSweepReplyPartlyStored(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, CacheEntries: 64})
	half := strings.Replace(sweepBody, `"points": ["16KB", "64KB"]`, `"points": ["16KB"]`, 1)
	first, _ := postSweep(t, ts, half)
	waitSweepDone(t, ts, first.ID)
	st, _ := postSweep(t, ts, sweepBody)
	if final := waitSweepDone(t, ts, st.ID); final.Deduped != 2 || final.Done != 4 {
		t.Fatalf("sweep: %+v, want 2 of 4 points stored", final)
	}
	if n := checkSweepReply(t, s, ts, st.ID); n != 4 {
		t.Fatalf("spliced %d of 4 points", n)
	}
}

// TestSweepReplyNoCacheRerun: a no_cache re-run stores new results,
// with their own Timing, under the grid's keys. The first sweep's reply
// must then encode its own results, never the bytes kept for the
// re-run's.
func TestSweepReplyNoCacheRerun(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, CacheEntries: 64})
	first, _ := postSweep(t, ts, sweepBody)
	waitSweepDone(t, ts, first.ID)
	noCache := strings.Replace(sweepBody, `"base"`, `"no_cache": true, "base"`, 1)
	rerun, _ := postSweep(t, ts, noCache)
	if final := waitSweepDone(t, ts, rerun.ID); final.Deduped != 0 {
		t.Fatalf("no_cache re-run: %+v, want every point simulated", final)
	}
	if n := checkSweepReply(t, s, ts, first.ID); n != 0 {
		t.Fatalf("first sweep spliced %d points after the re-run replaced them", n)
	}
	if n := checkSweepReply(t, s, ts, rerun.ID); n != 4 {
		t.Fatalf("re-run spliced %d of 4 points", n)
	}
}

// TestSweepReplyAfterRestart: after a restart the disk tier answers the
// sweep; the memory tier keeps each envelope's payload, which must be
// json.Marshal of the decoded value, and the reply splices it.
func TestSweepReplyAfterRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts1, shutdown1 := newStoreServer(t, dir, nil)
	cold, _ := postSweep(t, ts1, sweepBody)
	waitSweepDone(t, ts1, cold.ID)
	shutdown1()

	s2, ts2, _ := newStoreServer(t, dir, nil)
	st, _ := postSweep(t, ts2, sweepBody)
	if st.State != jobs.StateDone {
		t.Fatalf("resubmit after restart is %s, want born done", st.State)
	}
	if got := s2.StoreStats().DiskHits; got != uint64(st.Total) {
		t.Fatalf("%d disk hits, want %d", got, st.Total)
	}
	if n := checkSweepReply(t, s2, ts2, st.ID); n != st.Total {
		t.Fatalf("spliced %d of %d points", n, st.Total)
	}
}

// TestJobReplyCached: a cached job's result reply splices the stored
// Result and equals encoding/json's encoding of the JobResult.
func TestJobReplyCached(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheEntries: 8})
	first, _ := postJob(t, ts, smallRun)
	waitDone(t, ts, first.ID)
	st, _ := postJob(t, ts, smallRun)
	if !st.CacheHit {
		t.Fatalf("resubmit: %+v, want a cache hit", st)
	}
	for _, id := range []string{first.ID, st.ID} {
		snap, err := s.pool.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if s.store.Encoded(results.Key(st.Key), snap.Result) == nil {
			t.Fatalf("job %s: no kept bytes for its result", id)
		}
		want := encoderBytes(t, JobResult{ID: id, Type: TypeRun, Run: snap.Result.(*sim.Result)})
		if got := getBody(t, ts, "/v1/jobs/"+id+"/result"); !bytes.Equal(got, want) {
			t.Fatalf("job %s reply differs from encoding/json's:\n got %s\nwant %s", id, got, want)
		}
	}
}

// TestStoreEndpointMemoryPayload: GET /v1/store/{key} for a memory-tier
// entry frames the kept bytes, which equal json.Marshal of the value.
func TestStoreEndpointMemoryPayload(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheEntries: 8})
	st, _ := postJob(t, ts, smallRun)
	waitDone(t, ts, st.ID)
	env, err := store.Decode(getBody(t, ts, "/v1/store/"+st.Key))
	if err != nil {
		t.Fatal(err)
	}
	v, _, ok := s.cache.Peek(results.Key(st.Key))
	if !ok {
		t.Fatal("result not in the memory tier")
	}
	if want, _ := json.Marshal(v); !bytes.Equal(env.Payload, want) {
		t.Fatalf("payload differs from json.Marshal of the value:\n got %s\nwant %s", env.Payload, want)
	}
}

// FuzzSweepReplyMatchesEncoder: for sweep results of random points —
// strings that need JSON or HTML escaping, optional fields zero or set,
// nil results, empty and non-empty geomeans, points with and without
// kept bytes — the spliced reply equals json.Encoder's bytes.
func FuzzSweepReplyMatchesEncoder(f *testing.F) {
	f.Add(int64(1), "fft", `<b>&"\`, uint8(5))
	f.Add(int64(2), "", "\u2028\x00\t\xff é", uint8(0))
	f.Add(int64(3), "local", "counters+hashes", uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, a, b string, n uint8) {
		rng := rand.New(rand.NewSource(seed))
		str := func() string {
			return [...]string{"", a, b, a + b}[rng.Intn(4)]
		}
		num := func() int {
			if rng.Intn(2) == 0 {
				return 0
			}
			return int(rng.Int63()>>rng.Intn(63)) - rng.Intn(2)*int(rng.Int31())
		}
		flt := func() float64 {
			return rng.NormFloat64() * float64(int64(1)<<rng.Intn(62)) / float64(int64(1)<<rng.Intn(62))
		}
		res := &sweep.Result{Total: num(), Done: num(), Deduped: num(), Wall: time.Duration(num())}
		if n%3 != 0 {
			res.Points = []sweep.PointResult{}
		}
		var kept [][]byte
		for i := 0; i < int(n%32); i++ {
			p := sweep.PointResult{
				Point: sweep.Point{
					Index: num(), Benchmark: str(), Secure: rng.Intn(2) == 0,
					LLCBytes: num(), MetaBytes: num(),
					Content: str(), Policy: str(), Partition: str(),
					PartialWrites: rng.Intn(2) == 0,
				},
				Cached: rng.Intn(2) == 0,
				Worker: str(),
			}
			var data []byte
			if rng.Intn(4) != 0 {
				p.Result = &sim.Result{
					Benchmark: str(), Instructions: rng.Uint64(), Cycles: rng.Uint64(),
					IPC: flt(), LLCMPKI: flt(), MetaMPKI: flt(), ED2: flt(),
					Timing: sim.PhaseTiming{Setup: time.Duration(num()), Total: time.Duration(num())},
				}
				if rng.Intn(3) != 0 {
					data, _ = json.Marshal(p.Result)
				}
			}
			res.Points = append(res.Points, p)
			kept = append(kept, data)
		}
		for i := rng.Intn(3) * rng.Intn(4); i > 0; i-- {
			res.Geomeans = append(res.Geomeans, sweep.AxisGeomean{
				Axis: str(), Label: str(), Points: num(),
				LLCMPKI: flt(), MetaMPKI: flt(), IPC: flt(), ED2: flt(),
			})
		}
		if len(res.Geomeans) == 0 && rng.Intn(2) == 0 {
			res.Geomeans = []sweep.AxisGeomean{}
		}
		got, err := appendSweepResult(nil, res, func(i int) []byte { return kept[i] })
		if err != nil {
			t.Fatal(err)
		}
		if want := encoderBytes(t, res); !bytes.Equal(got, want) {
			t.Fatalf("reply differs from encoding/json's:\n got %s\nwant %s", got, want)
		}
	})
}
