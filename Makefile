# Verify targets. `make check` is the full gate (ROADMAP "Tier-1
# verify" plus formatting, vet, the doc-comment lint, and the
# race-detector pass over the concurrent packages); CI and pre-commit
# should run exactly this.

GO ?= go

# Packages with real concurrency (worker pool, server, suite fan-out,
# result cache, fault injection, sweep engine, tiered result store,
# fleet coordinator, sweep journal, and the root package's fleet and
# crash e2e tests) — the ones -race can actually catch regressions in.
# The server and journal lists include the chaos tests.
RACE_PKGS := ./internal/server ./internal/jobs ./internal/results ./internal/sim ./internal/faults ./internal/sweep ./internal/store ./internal/fleet ./internal/journal ./internal/trace ./internal/workload ./internal/workload/spec .

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

.PHONY: check build fmt lint test vet race bench benchcheck fuzzsmoke run-mapsd fleet-demo crash-drill

check: build fmt vet lint test race fuzzsmoke benchcheck

build:
	$(GO) build ./...

# Fail (and list offenders) when any file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Doc-comment lint: cliutil.MissingDocs enforced by its test — every
# exported identifier in the API-surface packages stays documented.
lint:
	$(GO) test -run TestRepoPackagesFullyDocumented ./internal/cliutil

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race $(RACE_PKGS)
	# Pipeline twin tests under both extremes of scheduler pressure:
	# one P interleaves the front and back stages on a single thread
	# (hand-off bugs hide here), eight Ps maximizes true parallelism
	# on small runners. The tests force the pipelined placement
	# themselves, so a one-CPU runner still exercises it.
	GOMAXPROCS=1 $(GO) test -race -count=1 -run '$(PIPELINE_TESTS)' ./internal/sim
	GOMAXPROCS=8 $(GO) test -race -count=1 -run '$(PIPELINE_TESTS)' ./internal/sim

# Ten seconds of coverage-guided fuzzing per decoder that parses
# untrusted bytes: the trace readers (legacy and streaming), the
# workload-spec parser (hand-rolled YAML fed by user files and wire
# requests), the store's envelope decoder (fed by disk files and peer
# responses), and the sweep journal's record decoder (fed by
# crash-scrambled WAL files) — enough to catch parser regressions on
# malformed input without slowing the gate meaningfully. Fuzz corpus
# findings land in each package's testdata.
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz=FuzzReadFrom -fuzztime=10s ./internal/trace
	$(GO) test -run '^$$' -fuzz=FuzzReadStream -fuzztime=10s ./internal/trace
	$(GO) test -run '^$$' -fuzz=FuzzDecodeWorkloadSpec -fuzztime=10s ./internal/workload/spec
	$(GO) test -run '^$$' -fuzz=FuzzDecodeEnvelope -fuzztime=10s ./internal/store
	$(GO) test -run '^$$' -fuzz=FuzzDecodeJournalRecord -fuzztime=10s ./internal/journal

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
