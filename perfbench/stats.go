package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by the nearest-rank rule, so
// p99 of n samples is a sample with n/100 samples beyond it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(float64(len(s))*q+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the middle sample, or the mean of the two middle ones.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

const (
	heapObjects = "/memory/classes/heap/objects:bytes"
	heapAllocs  = "/gc/heap/allocs:bytes"
)

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocatedBytes is the process's cumulative heap allocation.
func allocatedBytes() uint64 { return readMetric(heapAllocs) }

// heapSampler tracks the peak of the heap's object bytes (live and
// not yet collected) from a goroutine that reads it every
// millisecond. Its goroutine exits on the first stop.
type heapSampler struct {
	mu   sync.Mutex
	peak uint64
	quit chan struct{}
	done chan struct{}
	once sync.Once
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	v := readMetric(heapObjects)
	h.mu.Lock()
	if v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// stop ends sampling and returns the peak in bytes; later calls are
// harmless.
func (h *heapSampler) stop() uint64 {
	h.once.Do(func() { close(h.quit) })
	<-h.done
	h.sample()
	return h.peak
}

// machineStamp describes the host a run was measured on, so every
// figure can be read against its hardware.
func machineStamp(tmpDir string) map[string]string {
	return map[string]string{
		"nproc":        strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs":   strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go_version":   runtime.Version(),
		"cpu_model":    cpuModel(),
		"tmp_fs":       fsType(tmpDir),
		"journal_sync": journalSync.String(),
		"git_commit":   gitCommit(),
	}
}

// processCPUTime is the user and system CPU time of every thread of
// the process. Time the hypervisor takes a CPU away is not in it.
func processCPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
		0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}

// gitCommit reads the checked-out commit from .git in the working
// directory, or reports "unknown" for a plain source export. It reads
// the files directly so that no git configuration outside the
// checkout is consulted.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if c, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(c))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if c, name, ok := strings.Cut(line, " "); ok && name == ref {
			return c
		}
	}
	return "unknown"
}
