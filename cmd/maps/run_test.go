package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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
