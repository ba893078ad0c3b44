package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// cachedSweepBody is a 16-point grid: 1 benchmark × 4 metadata-cache
// sizes × 2 content policies × 2 replacement policies.
const cachedSweepBody = `{
	"base": {"benchmark": "perlbench", "instructions": 20000},
	"axes": {
		"meta": {"points": ["16KB", "32KB", "64KB", "128KB"]},
		"contents": ["counters", "all"],
		"policies": ["plru", "lru"]
	}
}`

// BenchmarkCachedSweep times mapsd's HTTP admit and memory store tier
// on a stored grid: each iteration resubmits a 16-point sweep the
// memory tier answers whole, so it is born done, and fetches its
// result.
func BenchmarkCachedSweep(b *testing.B) {
	s := New(Config{Workers: 2, CacheEntries: 64})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	sweepOnce := func() SweepStatus {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(cachedSweepBody))
		if err != nil {
			b.Fatal(err)
		}
		var st SweepStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted || st.Total != 16 {
			b.Fatalf("submit: %d %v %+v", resp.StatusCode, err, st)
		}
		return st
	}
	result := func(id string) {
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/result")
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("result %s: %d %v", id, resp.StatusCode, err)
		}
	}

	cold := sweepOnce()
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(5 * time.Millisecond) {
		if j, _ := s.sweepByID(cold.ID); j != nil {
			if state, _ := j.finishState(); state.Terminal() {
				break
			}
		}
		if time.Now().After(deadline) {
			b.Fatal("cold sweep did not finish")
		}
	}
	result(cold.ID)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := sweepOnce()
		if st.Deduped != st.Total {
			b.Fatalf("resubmit served %d of %d points from the store", st.Deduped, st.Total)
		}
		result(st.ID)
	}
}
