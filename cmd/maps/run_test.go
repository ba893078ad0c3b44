package main

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/maps-sim/mapsim/internal/jobs"
	"github.com/maps-sim/mapsim/internal/server"
	"github.com/maps-sim/mapsim/internal/sim"
)

const testSpecYAML = `
name: cli-mix
clients:
  - name: web
    rate_fraction: 0.7
    footprint: 256KB
    write_fraction: 0.2
    arrival:
      process: poisson
  - name: batch
    rate_fraction: 0.3
    footprint: 512KB
    write_fraction: 0.5
    arrival:
      process: gamma
      cv: 2.0
`

func buildMaps(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "maps")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

func runMaps(t *testing.T, bin string, args ...string) (string, string, error) {
	t.Helper()
	return runMapsEnv(t, bin, nil, args...)
}

// runMapsEnv is runMaps with extra environment variables.
func runMapsEnv(t *testing.T, bin string, env []string, args ...string) (string, string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

// TestRunSpecDeterministicAcrossShards exercises the real binary: a
// workload-spec run must emit byte-identical JSON across repeats and
// whether its back stage pipelines or, on one P, runs inline — the
// end-to-end form of the pipeline's bit-identity contract. The name
// dates from the -shards flag that placement replaced.
func TestRunSpecDeterministicAcrossShards(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildMaps(t)
	specPath := filepath.Join(t.TempDir(), "mix.yaml")
	if err := os.WriteFile(specPath, []byte(testSpecYAML), 0o644); err != nil {
		t.Fatal(err)
	}

	args := []string{"run", "-workload-spec", specPath, "-instructions", "100000", "-json"}
	first, _, err := runMaps(t, bin, args...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(first, `"benchmark": "cli-mix"`) {
		t.Fatalf("output missing spec name:\n%s", first)
	}
	repeat, _, err := runMaps(t, bin, args...)
	if err != nil {
		t.Fatalf("repeat run: %v", err)
	}
	if first != repeat {
		t.Error("repeated runs emitted different JSON")
	}
	inline, _, err := runMapsEnv(t, bin, []string{"GOMAXPROCS=1"}, args...)
	if err != nil {
		t.Fatalf("inline run: %v", err)
	}
	if first != inline {
		t.Error("the run on one P emitted different JSON than the default run")
	}
}

func TestRunFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildMaps(t)
	cases := [][]string{
		{"run"}, // no workload source
		{"run", "-bench", "fft", "-trace", "x.mtrc"},                 // two sources
		{"run", "-trace", "x.mtrc", "-remote", "http://localhost:1"}, // trace is machine-local
	}
	for _, args := range cases {
		if _, _, err := runMaps(t, bin, args...); err == nil {
			t.Errorf("maps %s succeeded, want error", strings.Join(args, " "))
		}
	}
}

// TestRunMetaDefaults: a local run given only some metadata-cache
// flags gets the same defaults a daemon run does — Table I's 8 ways,
// and a 64KB cache when -meta is absent — instead of failing on an
// unset associativity. The README's documented invocations run here
// too, so a doc example cannot break unseen.
func TestRunMetaDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildMaps(t)
	specPath := filepath.Join(t.TempDir(), "mixed.yaml")
	if err := os.WriteFile(specPath, []byte(testSpecYAML), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args []string
		want string // in stdout
	}{
		{[]string{"run", "-bench", "lbm", "-meta", "64KB"}, "meta hit rate"},
		{[]string{"run", "-bench", "lbm", "-content", "all"}, "meta hit rate"},
		{[]string{"run", "-workload-spec", specPath, "-meta", "128KB", "-json"}, `"meta": {`},
		// README's "Single-run CLI" block.
		{[]string{"run", "-bench", "canneal", "-meta", "64KB", "-policy", "eva", "-content", "all", "-partial-writes"}, "metadata cache by kind"},
		{[]string{"run", "-suite", "-meta", "64KB"}, "geomean"},
		{[]string{"run", "-list"}, "streamcluster"},
	}
	for _, tc := range cases {
		args := append(tc.args, "-instructions", "100000")
		stdout, stderr, err := runMaps(t, bin, args...)
		if err != nil {
			t.Errorf("maps %s: %v\n%s", strings.Join(args, " "), err, stderr)
			continue
		}
		if !strings.Contains(stdout, tc.want) {
			t.Errorf("maps %s: stdout lacks %q:\n%s", strings.Join(args, " "), tc.want, stdout)
		}
	}
}

// TestRunLocalMatchesDaemon: every `maps run` flag gives the same
// -json Result locally and with -remote against an in-process mapsd,
// because both paths build their run from one wire spec. Timing is
// already zeroed by the command.
func TestRunLocalMatchesDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildMaps(t)
	specPath := filepath.Join(t.TempDir(), "mix.yaml")
	if err := os.WriteFile(specPath, []byte(testSpecYAML), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	cases := map[string][]string{
		"bench":          {"-bench", "canneal"},
		"workload spec":  {"-workload-spec", specPath, "-meta", "32KB"},
		"meta geometry":  {"-bench", "lbm", "-meta", "16KB", "-ways", "4", "-content", "counters+hashes"},
		"policy":         {"-bench", "canneal", "-meta", "32KB", "-policy", "eva"},
		"sgx":            {"-bench", "mcf", "-org", "sgx", "-meta", "64KB"},
		"partial writes": {"-bench", "lbm", "-meta", "64KB", "-partial-writes"},
		"no speculation": {"-bench", "canneal", "-meta", "64KB", "-speculation=false"},
		"insecure":       {"-bench", "canneal", "-secure=false"},
		"suite":          {"-suite", "-meta", "16KB"},
	}
	for name, flags := range cases {
		t.Run(name, func(t *testing.T) {
			args := append([]string{"run", "-json", "-instructions", "30000"}, flags...)
			local, stderr, err := runMaps(t, bin, args...)
			if err != nil {
				t.Fatalf("local: %v\n%s", err, stderr)
			}
			remote, stderr, err := runMaps(t, bin, append(args, "-remote", ts.URL)...)
			if err != nil {
				t.Fatalf("remote: %v\n%s", err, stderr)
			}
			if local != remote {
				t.Errorf("local and daemon results differ:\nlocal:  %s\ndaemon: %s", local, remote)
			}
		})
	}
}

// TestSuiteRunsAreStoreHits: `maps run -suite -remote` runs as a sweep,
// so the daemon's store holds every benchmark's run, and a later
// `maps run -remote` of one benchmark with the same flags is answered
// from it: a born-done cache hit that simulates nothing, whose Result
// is the suite's entry for that benchmark.
func TestSuiteRunsAreStoreHits(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildMaps(t)
	srv := server.New(server.Config{Workers: 2})
	handler := srv.Handler()
	var mu sync.Mutex
	var submits []server.JobStatus
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/jobs" {
			handler.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, r)
		var st server.JobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Errorf("submit reply %q: %v", rec.Body.String(), err)
		}
		mu.Lock()
		submits = append(submits, st)
		mu.Unlock()
		maps.Copy(w.Header(), rec.Header())
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	flags := []string{"run", "-json", "-instructions", "30000", "-meta", "16KB", "-remote", ts.URL}
	out, stderr, err := runMaps(t, bin, append(flags, "-suite")...)
	if err != nil {
		t.Fatalf("suite: %v\n%s", err, stderr)
	}
	var suite sim.SuiteResult
	if err := json.Unmarshal([]byte(out), &suite); err != nil {
		t.Fatal(err)
	}
	misses := srv.StoreStats().Misses

	out, stderr, err = runMaps(t, bin, append(flags, "-bench", "canneal")...)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, stderr)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(submits) != 1 || !submits[0].CacheHit || submits[0].State != jobs.StateDone {
		t.Fatalf("run after the suite submitted %+v, want one born-done cache hit", submits)
	}
	if got := srv.StoreStats().Misses; got != misses {
		t.Fatalf("store misses %d → %d: the run simulated again", misses, got)
	}
	var run sim.Result
	if err := json.Unmarshal([]byte(out), &run); err != nil {
		t.Fatal(err)
	}
	if want := suite.PerBench["canneal"]; want == nil || !reflect.DeepEqual(&run, want) {
		t.Fatalf("run result differs from the suite's canneal entry:\nrun   %+v\nsuite %+v", run, want)
	}
}
