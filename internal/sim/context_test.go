package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/maps-sim/mapsim/internal/cache/policy"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/trace"
	"github.com/maps-sim/mapsim/internal/workload"
)

// A cancelled context must stop a long run mid-flight rather than
// letting it complete.
func TestRunContextCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// Far more instructions than complete in the test's lifetime.
		_, err := RunContext(ctx, Config{Benchmark: "libquantum", Instructions: 2_000_000_000})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunContext did not return after cancellation")
	}
}

func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := RunContext(ctx, Config{Benchmark: "libquantum", Instructions: 2_000_000_000})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

func TestCanonicalAppliesDefaults(t *testing.T) {
	implicit, err := Config{Benchmark: "fft"}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Config{
		Benchmark:    "fft",
		Instructions: 2_000_000,
		Warmup:       200_000,
		Seed:         1,
	}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(implicit, explicit) {
		t.Fatalf("defaulted config differs from explicit equivalent:\n%+v\n%+v", implicit, explicit)
	}
	if implicit.Instructions != 2_000_000 || implicit.Warmup != 200_000 || implicit.Seed != 1 {
		t.Fatalf("defaults not applied: %+v", implicit)
	}
	if implicit.Hierarchy.L1Size == 0 || implicit.DRAM.Banks == 0 || implicit.BaseCPI != 1.0 {
		t.Fatalf("structural defaults not applied: %+v", implicit)
	}
}

func TestCanonicalRejectsStatefulFields(t *testing.T) {
	if _, err := (Config{}).Canonical(); err == nil {
		t.Error("want error for missing benchmark")
	}
	if _, err := (Config{Benchmark: "fft", Tap: func(trace.Access) {}}).Canonical(); err == nil {
		t.Error("want error for Tap")
	}
	g, err := workload.New("fft")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Config{Workload: g}).Canonical(); err == nil {
		t.Error("want error for caller-supplied Workload")
	}
	if _, err := (Config{
		Benchmark: "fft",
		Meta:      &metacache.Config{Size: 64 << 10, Ways: 8, Policy: policy.NewLRU()},
	}).Canonical(); err == nil {
		t.Error("want error for stateful Meta.Policy")
	}
}
