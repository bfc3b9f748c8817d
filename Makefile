# Tier-1 verification and benchmark evidence for the serpentine
# simulator. `make verify` is the gate every change must pass;
# `make bench` regenerates the committed benchmark evidence.

GO      ?= go
BENCH_OUT ?= BENCH_PR1.json
BENCH_TXT ?= bench.txt
BENCH6_OUT ?= BENCH_PR6.json
BENCH6_BASELINE ?= BENCH_PR6_BASELINE.txt

# End-to-end benchmarks for the dispatch-loop perf pass: a full
# library sweep cell, the online server's steady-state loop, and the
# bare event-heap cycle. 200 fixed iterations amortize sync.Pool
# warmup so the numbers reflect steady state, not cold pools.
E2E_BENCH := BenchmarkLibrarySweepCell$$|BenchmarkServerSteadyState|BenchmarkEventLoopDispatch

# Pinned analysis-tool versions: `go run pkg@version` fetches and runs
# without touching go.mod, so the simulator itself stays dependency-free.
STATICCHECK := honnef.co/go/tools/cmd/staticcheck@2025.1.1
GOVULNCHECK := golang.org/x/vuln/cmd/govulncheck@v1.1.4

FUZZTIME ?= 30s

.PHONY: verify test vet fmt race bench bench-json bench-pr6 profile fuzz-smoke lint vulncheck cover results clean

# Tier-1 verify: build, vet, full test suite, and the race detector
# over the parallel simulator plus the packages it drives concurrently
# (the shared cartridge intern and the geometry it holds, the drive
# emulator, the scheduler suite, the online server and its metrics
# registry, the multi-drive tape library, and the sharded fleet).
verify: vet
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -race ./internal/locate/... ./internal/geometry/... ./internal/sim/... ./internal/drive/... ./internal/core/... ./internal/server/... ./internal/obs/... ./internal/tertiary/... ./internal/hsm/... ./internal/fleet/...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fail when any file is not gofmt-clean; prints the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./internal/locate/... ./internal/geometry/... ./internal/sim/... ./internal/drive/... ./internal/core/... ./internal/server/... ./internal/obs/... ./internal/tertiary/... ./internal/hsm/... ./internal/fleet/...

# Run the performance-critical benchmarks with allocation reporting:
# the scheduler suite, the locate-model fast path, the store build
# (one cartridge and its models), the staging-tier cell, and the
# root-level figure benchmarks that exercise the whole pipeline.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkScheduler' -benchmem ./internal/core | tee $(BENCH_TXT)
	$(GO) test -run '^$$' -bench 'BenchmarkCostMatrix|BenchmarkCartridgeLoad' -benchmem ./internal/locate | tee -a $(BENCH_TXT)
	$(GO) test -run '^$$' -bench 'BenchmarkTierCell' -benchmem ./internal/hsm | tee -a $(BENCH_TXT)
	$(GO) test -run '^$$' -bench 'BenchmarkFig4RandomStart|BenchmarkLocateTime' -benchmem . | tee -a $(BENCH_TXT)

# Convert the captured text into committed JSON evidence.
bench-json: bench
	$(GO) run ./cmd/benchjson < $(BENCH_TXT) > $(BENCH_OUT)
	rm -f $(BENCH_TXT)

# Regenerate the committed end-to-end benchmark evidence: the PR-1
# scheduler suite (trajectory continuity) plus the end-to-end benches,
# with the pre-optimization capture embedded under "baseline" so
# before/after lives in one document.
bench-pr6:
	$(GO) test -run '^$$' -bench 'BenchmarkScheduler' -benchmem ./internal/core | tee $(BENCH_TXT)
	$(GO) test -run '^$$' -bench '$(E2E_BENCH)' -benchtime 200x -benchmem ./internal/tertiary ./internal/server | tee -a $(BENCH_TXT)
	$(GO) run ./cmd/benchjson -baseline $(BENCH6_BASELINE) < $(BENCH_TXT) > $(BENCH6_OUT)
	rm -f $(BENCH_TXT)

# CPU and heap profiles of a representative library sweep cell, for
# `go tool pprof results/pprof/cpu.out` (see EXPERIMENTS.md §"Profiling
# the event loop"). Artifacts are gitignored.
profile:
	mkdir -p results/pprof
	$(GO) test -run '^$$' -bench 'BenchmarkLibrarySweepCell$$' -benchtime 300x \
		-cpuprofile results/pprof/cpu.out -memprofile results/pprof/heap.out \
		-o results/pprof/tertiary.test ./internal/tertiary

# Short fuzzing passes over the locate model's section lookup, the
# executor's replan path, the server's admission queue, the library batcher, the sweeps' store layout, the
# bounded ring and the span store and wide-event ring built on it, the
# SLO sliding windows, the staging cache's eviction policies, the fleet
# routing tier, and dense and sparse LOSS against their eager full-sort
# reference — the state machines and builders arbitrary inputs can
# reach. CI runs this on every PR; locally, raise FUZZTIME to dig.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSectionIndex$$' -fuzztime $(FUZZTIME) ./internal/locate/
	$(GO) test -run '^$$' -fuzz '^FuzzExecutorReplan$$' -fuzztime $(FUZZTIME) ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzAdmissionQueue$$' -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzLibraryBatcher$$' -fuzztime $(FUZZTIME) ./internal/tertiary/
	$(GO) test -run '^$$' -fuzz '^FuzzLibraryRescue$$' -fuzztime $(FUZZTIME) ./internal/tertiary/
	$(GO) test -run '^$$' -fuzz '^FuzzEventHeap$$' -fuzztime $(FUZZTIME) ./internal/tertiary/
	$(GO) test -run '^$$' -fuzz '^FuzzSweepLayout$$' -fuzztime $(FUZZTIME) ./internal/tertiary/
	$(GO) test -run '^$$' -fuzz '^FuzzRing$$' -fuzztime $(FUZZTIME) ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzSpanStore$$' -fuzztime $(FUZZTIME) ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzWideEventRing$$' -fuzztime $(FUZZTIME) ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzSLOWindow$$' -fuzztime $(FUZZTIME) ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzCacheEviction$$' -fuzztime $(FUZZTIME) ./internal/hsm/
	$(GO) test -run '^$$' -fuzz '^FuzzFleetRouting$$' -fuzztime $(FUZZTIME) ./internal/fleet/
	$(GO) test -run '^$$' -fuzz '^FuzzLOSSMatchesFullSort$$' -fuzztime $(FUZZTIME) ./internal/core/

# Static analysis beyond vet, with pinned tool versions. Needs network
# on first run to fetch the tools (CI caches them).
lint:
	$(GO) run $(STATICCHECK) ./...
	$(GO) run $(GOVULNCHECK) ./...

# The vulnerability scan alone, for the weekly scheduled workflow:
# advisories published after a commit landed are the case the per-PR
# lint run cannot catch.
vulncheck:
	$(GO) run $(GOVULNCHECK) ./...

# Coverage over the internal packages; CI uploads the profile as a PR
# artifact and posts the aggregate line in the job summary.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./internal/...
	$(GO) tool cover -func=coverage.out | tail -1

# Regenerate every committed result file listed in results/MANIFEST,
# all but the host-timed fig6.txt. The generators are deterministic at
# any worker count, so `git diff results/` after this target must be
# empty; CI's determinism matrix checks each manifest class.
results:
	GO=$(GO) sh scripts/determinism.sh write

clean:
	rm -f $(BENCH_TXT)
