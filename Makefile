# Verify targets. `make check` is the full gate (ROADMAP "Tier-1
# verify" plus formatting, vet, the doc-comment lint, the perfbench
# module's vet and tests, and the race-detector pass over the
# concurrent packages); CI and pre-commit should run exactly this.

GO ?= go

# Packages with real concurrency (worker pool, server, result cache,
# fault injection, sweep executor tests, tiered result store, fleet
# coordinator, sweep journal, the experiments' plans — whose Taps and
# done steps run on the executor's pool goroutines — and the root
# package's suite, fleet and crash e2e tests) — the ones -race
# can actually catch regressions in. The server and journal lists
# include the chaos tests.
RACE_PKGS := ./internal/server ./internal/jobs ./internal/results ./internal/sim ./internal/faults ./internal/sweep ./internal/store ./internal/fleet ./internal/journal ./internal/trace ./internal/workload ./internal/workload/spec ./internal/experiments .

# Twin tests pinning the pipelined placement of a run's back stage to
# the inline one (internal/sim/pipeline_test.go and friends), the run
# group twins pinning each RunGroup member to its run alone
# (internal/sim/group_test.go), plus the recorded Result digests both
# placements must reproduce.
PIPELINE_TESTS := TestEpoch|TestEffectiveShards|TestPipeline|TestSpecShardsBitIdentical|TestTraceReplayPipelinedBitIdentical|TestTraceAddressOutOfRange|TestResultDigestsPinned|TestProgressAllocParity|TestConcurrencyFromContext|TestRunGroup|TestFrontOf

# Hot-loop benchmarks guarded by the perf-regression gate
# (cmd/benchcheck + BENCH_kernel.json; see docs/PERFORMANCE.md).
BENCHES := BenchmarkAccessKernel|BenchmarkRunInsecure|BenchmarkRunSecure|BenchmarkRunSecureInline
BENCH_PKG := ./internal/sim
# Allowed fractional ns/op growth before benchcheck fails the build.
BENCH_TOLERANCE ?= 0.10

.PHONY: check build fmt lint test vet perfbench race bench benchcheck fuzzsmoke run-mapsd fleet-demo crash-drill

check: build fmt vet lint test perfbench race fuzzsmoke benchcheck

build:
	$(GO) build ./...

# Fail (and list offenders) when any file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Doc-comment lint: cliutil.MissingDocs enforced by its test — every
# exported identifier in the API-surface packages stays documented —
# plus the check that fuzzsmoke lists exactly the repo's fuzz targets.
lint:
	$(GO) test -run 'TestRepoPackagesFullyDocumented|TestFuzzSmokeListsEveryFuzzTarget' ./internal/cliutil

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# perfbench/ is its own module (compiled against this tree through a
# `replace ../`), so the root build, vet, and test never see it; vet
# and test it here so an API change cannot break the benchmark unseen.
perfbench:
	$(GO) -C perfbench vet ./... && $(GO) -C perfbench test ./...

race:
	$(GO) test -race $(RACE_PKGS)
	# Pipeline twin tests under both extremes of scheduler pressure:
	# one P interleaves the front and back stages on a single thread
	# (hand-off bugs hide here), eight Ps maximizes true parallelism
	# on small runners. The tests force the pipelined placement
	# themselves, so a one-CPU runner still exercises it.
	GOMAXPROCS=1 $(GO) test -race -count=1 -run '$(PIPELINE_TESTS)' ./internal/sim
	GOMAXPROCS=8 $(GO) test -race -count=1 -run '$(PIPELINE_TESTS)' ./internal/sim

# Ten seconds of coverage-guided fuzzing per target. Five targets are
# decoders that parse untrusted bytes: the trace reader (the one
# on-disk trace format), the workload-spec parser (hand-rolled YAML fed by user
# files and wire requests), the store's envelope decoder (fed by disk
# records and peer responses), the store's segment reader (Open and
# Get over a crash-scrambled segment log), and the sweep journal's
# record decoder (fed by crash-scrambled WAL files). One checks that
# the memory layout classifies every in-range address, and metadata
# addresses derived from data addresses, to the right kind. The next
# three are differential: one holds the hierarchy's recency-ordered true-LRU
# level to cache.Cache with policy.LRU on fuzzer-chosen geometries and
# access streams, one the metadata cache's packed sets to cache.Cache
# with the same PLRU or LRU policy on fuzzer-chosen geometries,
# partitions, partial-write settings and access streams, and the last
# the engine's two-tier split-counter table to a per-page map on
# fuzzer-chosen layouts and write streams. The two result decoders'
# targets hold the canonical fast path of sim.Result and sweep.Result
# to encoding/json on any input: the same error-ness and the same value.
# The reply writer's target holds mapsd's spliced sweep replies to
# json.Encoder's bytes on random sweep results.
# scripts/fuzz_smoke.sh fails a target whose last progress line
# reports 0 execs/sec: a worker stuck on one input ran nothing new.
# Every target caps minimization at 1s: while a worker minimizes a
# newly interesting input (for up to 60s by default) it runs no new
# inputs, and on four of the targets and both result decoders that
# went on until the 10s were up.
# Enough to catch regressions on malformed or adversarial input without
# slowing the gate meaningfully. Fuzz corpus findings land in each
# package's testdata. TestFuzzSmokeListsEveryFuzzTarget
# (internal/cliutil) fails when this list and the repo's fuzz targets
# differ: `go test -fuzz=` on a package without the target only warns.
fuzzsmoke:
	GO=$(GO) ./scripts/fuzz_smoke.sh -fuzz=FuzzDecodeTrace -fuzztime=10s -fuzzminimizetime=1s ./internal/trace
	GO=$(GO) ./scripts/fuzz_smoke.sh -fuzz=FuzzClassifyRoundTrip -fuzztime=10s -fuzzminimizetime=1s ./internal/memlayout
	GO=$(GO) ./scripts/fuzz_smoke.sh -fuzz=FuzzDecodeWorkloadSpec -fuzztime=10s -fuzzminimizetime=1s ./internal/workload/spec
	GO=$(GO) ./scripts/fuzz_smoke.sh -fuzz=FuzzDecodeEnvelope -fuzztime=10s -fuzzminimizetime=1s ./internal/store
	GO=$(GO) ./scripts/fuzz_smoke.sh -fuzz=FuzzOpenSegment -fuzztime=10s -fuzzminimizetime=1s ./internal/store
	GO=$(GO) ./scripts/fuzz_smoke.sh -fuzz=FuzzDecodeJournalRecord -fuzztime=10s -fuzzminimizetime=1s ./internal/journal
	GO=$(GO) ./scripts/fuzz_smoke.sh -fuzz=FuzzLevelMatchesLRU -fuzztime=10s -fuzzminimizetime=1s ./internal/hierarchy
	GO=$(GO) ./scripts/fuzz_smoke.sh -fuzz=FuzzMetaSetsMatchCache -fuzztime=10s -fuzzminimizetime=1s ./internal/metacache
	GO=$(GO) ./scripts/fuzz_smoke.sh -fuzz=FuzzCounterTableMatchesMap -fuzztime=10s -fuzzminimizetime=1s ./internal/secmem/engine
	GO=$(GO) ./scripts/fuzz_smoke.sh -fuzz=FuzzDecodeResult -fuzztime=10s -fuzzminimizetime=1s ./internal/sim
	GO=$(GO) ./scripts/fuzz_smoke.sh -fuzz=FuzzDecodeSweepResult -fuzztime=10s -fuzzminimizetime=1s ./internal/sweep
	GO=$(GO) ./scripts/fuzz_smoke.sh -fuzz=FuzzSweepReplyMatchesEncoder -fuzztime=10s -fuzzminimizetime=1s ./internal/server

# Full benchmark pass: measure the access kernel and end-to-end runs,
# then record the numbers into BENCH_kernel.json's current section.
bench:
	$(GO) test -run '^$$' -bench '$(BENCHES)' -benchmem -count 5 $(BENCH_PKG) | tee /tmp/bench.out
	$(GO) run ./cmd/benchcheck -update -out BENCH_kernel.json < /tmp/bench.out

# Short-mode regression gate for `make check`: quick repeated runs,
# min-of-N comparison against the committed baseline.
benchcheck:
	$(GO) test -run '^$$' -bench '$(BENCHES)' -benchmem -benchtime 0.3s -count 5 $(BENCH_PKG) \
		| $(GO) run ./cmd/benchcheck -baseline BENCH_kernel.json -tolerance $(BENCH_TOLERANCE)

run-mapsd:
	$(GO) run ./cmd/mapsd

# Three-daemon fleet smoke test: two worker daemons plus a coordinator
# registered to both via -fleet, one small sweep fanned across them,
# per-worker attribution printed at the end. See docs/FLEET.md.
fleet-demo:
	./scripts/fleet_demo.sh

# Kill-and-recover drill: SIGKILL a journaled daemon mid-sweep,
# restart it on the same directories, and verify the sweep resumes
# under its original ID with zero re-simulated points. The narrated
# version lives in docs/ROBUSTNESS.md.
crash-drill:
	./scripts/crash_drill.sh
