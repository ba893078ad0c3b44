package sim

import (
	"testing"

	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/trace"
)

const testInstr = 300_000

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Run(Config{Benchmark: "nonesuch"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestInsecureBaseline(t *testing.T) {
	r, err := Run(Config{Benchmark: "libquantum", Instructions: testInstr})
	if err != nil {
		t.Fatal(err)
	}
	if r.Instructions < testInstr {
		t.Errorf("measured %d instructions", r.Instructions)
	}
	if r.Cycles == 0 || r.IPC <= 0 || r.IPC > 1 {
		t.Errorf("cycles=%d ipc=%v", r.Cycles, r.IPC)
	}
	if r.LLCMPKI <= 0 {
		t.Error("libquantum should miss in the LLC")
	}
	if r.MetaMPKI != 0 || r.Meta != nil {
		t.Error("insecure run should have no metadata stats")
	}
	if r.EnergyPJ <= 0 || r.ED2 <= 0 {
		t.Error("energy accounting empty")
	}
}

func TestSecureNoMetaCacheCostsMore(t *testing.T) {
	base, err := Run(Config{Benchmark: "libquantum", Instructions: testInstr})
	if err != nil {
		t.Fatal(err)
	}
	sec, err := Run(Config{Benchmark: "libquantum", Instructions: testInstr, Secure: true, Speculation: true})
	if err != nil {
		t.Fatal(err)
	}
	if sec.Cycles <= base.Cycles {
		t.Errorf("secure cycles %d <= baseline %d", sec.Cycles, base.Cycles)
	}
	if sec.EnergyPJ <= base.EnergyPJ {
		t.Errorf("secure energy %v <= baseline %v", sec.EnergyPJ, base.EnergyPJ)
	}
	if sec.MetaMPKI <= 0 {
		t.Error("no metadata traffic recorded")
	}
	if sec.Mem.Metadata() == 0 {
		t.Error("metadata memory traffic empty")
	}
}

func TestMetaCacheReducesTraffic(t *testing.T) {
	noCache, err := Run(Config{Benchmark: "libquantum", Instructions: testInstr, Secure: true, Speculation: true})
	if err != nil {
		t.Fatal(err)
	}
	withCache, err := Run(Config{
		Benchmark: "libquantum", Instructions: testInstr, Secure: true, Speculation: true,
		Meta: &metacache.Config{Size: 128 << 10, Ways: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if withCache.MetaMPKI >= noCache.MetaMPKI {
		t.Errorf("metadata cache did not reduce MPKI: %v >= %v", withCache.MetaMPKI, noCache.MetaMPKI)
	}
	if withCache.Mem.Metadata() >= noCache.Mem.Metadata() {
		t.Errorf("metadata cache did not reduce memory traffic: %d >= %d",
			withCache.Mem.Metadata(), noCache.Mem.Metadata())
	}
	if withCache.Meta == nil || withCache.Meta[memlayout.KindCounter].Accesses == 0 {
		t.Error("per-kind stats missing")
	}
	if withCache.MetaHitRate <= 0 || withCache.MetaHitRate > 1 {
		t.Errorf("hit rate = %v", withCache.MetaHitRate)
	}
}

func TestSpeculationHelps(t *testing.T) {
	spec, err := Run(Config{Benchmark: "canneal", Instructions: testInstr, Secure: true, Speculation: true,
		Meta: &metacache.Config{Size: 64 << 10, Ways: 8}})
	if err != nil {
		t.Fatal(err)
	}
	noSpec, err := Run(Config{Benchmark: "canneal", Instructions: testInstr, Secure: true, Speculation: false,
		Meta: &metacache.Config{Size: 64 << 10, Ways: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Cycles >= noSpec.Cycles {
		t.Errorf("speculation cycles %d >= non-speculative %d", spec.Cycles, noSpec.Cycles)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		r, err := Run(Config{Benchmark: "fft", Instructions: 100_000, Secure: true,
			Meta: &metacache.Config{Size: 64 << 10, Ways: 8}})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.MetaMPKI != b.MetaMPKI || a.Mem != b.Mem {
		t.Error("identical configs produced different results")
	}
}

func TestTapRecordsTrace(t *testing.T) {
	var tr trace.Trace
	_, err := Run(Config{
		Benchmark: "libquantum", Instructions: 100_000, Secure: true,
		Meta: &metacache.Config{Size: 64 << 10, Ways: 8},
		Tap:  func(a trace.Access) { tr.Append(a) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("tap recorded nothing")
	}
	kinds := map[uint8]bool{}
	for _, a := range tr.Accesses {
		kinds[a.Class] = true
	}
	if !kinds[uint8(memlayout.KindCounter)] || !kinds[uint8(memlayout.KindHash)] {
		t.Errorf("trace kinds incomplete: %v", kinds)
	}
}

func TestSGXOrganizationRuns(t *testing.T) {
	sgxCfg := Config{Benchmark: "libquantum", Instructions: 100_000, Secure: true,
		Org:  memlayout.SGX,
		Meta: &metacache.Config{Size: 64 << 10, Ways: 8}}
	r, err := Run(sgxCfg)
	if err != nil {
		t.Fatal(err)
	}
	checkIdentities(t, sgxCfg, r)
	// SGX counter blocks cover 8x less data: more counter traffic
	// than PI for a streaming workload.
	piCfg := Config{Benchmark: "libquantum", Instructions: 100_000, Secure: true,
		Org:  memlayout.PoisonIvy,
		Meta: &metacache.Config{Size: 64 << 10, Ways: 8}}
	pi, err := Run(piCfg)
	if err != nil {
		t.Fatal(err)
	}
	checkIdentities(t, piCfg, pi)
	sgxC := r.Meta[memlayout.KindCounter]
	piC := pi.Meta[memlayout.KindCounter]
	if sgxC.Misses <= piC.Misses {
		t.Errorf("SGX counter misses %d should exceed PI's %d", sgxC.Misses, piC.Misses)
	}
}

func TestLargerMetaCacheNoWorse(t *testing.T) {
	small, err := Run(Config{Benchmark: "fft", Instructions: testInstr, Secure: true,
		Meta: &metacache.Config{Size: 16 << 10, Ways: 8}})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(Config{Benchmark: "fft", Instructions: testInstr, Secure: true,
		Meta: &metacache.Config{Size: 1 << 20, Ways: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if big.MetaMPKI > small.MetaMPKI*1.05 {
		t.Errorf("1MB metadata cache (%v MPKI) much worse than 16KB (%v)", big.MetaMPKI, small.MetaMPKI)
	}
}
