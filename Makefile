GO ?= go

.PHONY: build fmt test test-fault test-checkpoint test-equiv fuzz test-dse test-daemon test-coordinator test-workload bench bench-compare vet lint check figures

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# fmt fails, listing the files, when any Go file is not gofmt-clean.
fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "fmt: not gofmt-clean (run gofmt -w):"; echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...

# test-fault runs the fault-injection and link-reliability matrix under the
# race detector: the reliability protocol unit tests, the fault-schedule
# validation table, the killed-link per-topology table, the hypercube
# acceptance scenario, and the seed corpus of the fault-schedule fuzz
# target.
test-fault:
	$(GO) test -race -run 'Rel|Fault|Credit|Schedule' ./internal/router ./internal/fault .
	$(GO) test -race -run FuzzFaultSchedule .

lint:
	$(GO) run ./cmd/chipletlint ./...

# test-checkpoint runs the checkpoint/restore and crash-safe-campaign
# matrix under the race detector: bit-identical resume across topologies
# and fault schedules, resume of the checkpoints in testdata/ written by an
# earlier build, typed rejection of damaged or mismatched snapshot files,
# the file format and packet table unit tests, the cross-GOMAXPROCS
# determinism golden test, the checkpoint fuzz seed corpus, the campaign
# journal, chipletfig's campaign loop (resume, panic isolation,
# memory-only journal), and the run pool's positional results (kept when
# one configuration fails).
test-checkpoint:
	$(GO) test -race -run 'Checkpoint|Determinism|RunControl|RunManyKeeps|RunManyOrders' .
	$(GO) test -race -run FuzzCheckpointRoundTrip .
	$(GO) test -race ./internal/checkpoint ./internal/packet
	$(GO) test -race -run 'Journal|Campaign' ./internal/experiments ./cmd/chipletfig

# EQUIV_RACE names the tests test-equiv runs under the race detector;
# check's final -race pass skips them.
EQUIV_RACE = EngineEquivalence|EngineCheckpoint|ActiveSetMatchesReference|ActiveSetMasksMatchState|VCAllocateScanOrder|CompiledRefusesUncertified|IslandPartition|IslandsDeterminism|LoneRunDeterminism|IslandWorkers|IslandGrain|UnclosedFabric|WorkerPanic|RunReleasesWorkers

# test-equiv runs the engine-equivalence gates under the race detector:
# the three-way differential matrix (reference stepper x active-set
# engine built with one island (on the matrix's fabrics, the default as
# it runs) and with its parallel grain forced to 0 and to a value that
# flips every five cycles, x
# parallel-islands engine at K in {2,4,NumCPU} — all topology kinds x
# routing modes, interpreted and compiled, x interleavings x fault
# schedules, with the per-cycle credit audit on one cell per topology
# but the largest), cross-engine checkpoint interchange (islands
# snapshots resume under active and vice versa), the in-package engine
# table (active and islands K in {1,2,3} and at K=2 under a grain that
# switches between serial and parallel cycles, traced and untraced,
# against the reference), the per-port wait-set invariants
# (ActiveSetMasksMatchState, VCAllocateScanOrder: all three engines
# share that walk, so the reference cannot check it), the seed
# corpora of the engine-equivalence and
# island-partition fuzz targets (the -run pattern matches both), the
# islands and lone-run GOMAXPROCS determinism golden tests (the islands
# barrier is the intra-run concurrency in the core engine, so the whole
# matrix runs -race), and the island workers' lifetime: reused across
# cycles, stopped by Close, by collection and by every way a run ends,
# a worker's panic raised on the caller (IslandWorkers, IslandGrain,
# UnclosedFabric, WorkerPanic, RunReleasesWorkers); then the zero-alloc and active-set invariant tests without
# it (AllocsPerRun is meaningless under -race), with the allocation
# count of one Build (BuildAllocs). Nothing here searches,
# so a red gate reproduces on re-run. The CompiledEngineEquivalence and
# CompiledRefusesUncertified tests match the EngineEquivalence pattern by
# substring.
test-equiv:
	$(GO) test -race -timeout 30m -run '$(EQUIV_RACE)' . ./internal/router
	$(GO) test -run 'ZeroAlloc|ActiveSet|DrainedFabric|AuditCredits|BuildAllocs' ./internal/router

# fuzz runs 30-second coverage-guided searches of the engine-equivalence
# and island-partition fuzz targets. It is not part of check: a random
# search can turn red on one run and green on the next, so a failure it
# finds is committed to testdata/fuzz and replayed by test-equiv.
fuzz:
	$(GO) test -fuzz FuzzEngineEquivalence -fuzztime 30s -run FuzzEngineEquivalence .
	$(GO) test -fuzz FuzzIslandPartition -fuzztime 30s -run FuzzIslandPartition .

# test-dse runs the design-space-exploration matrix under the race
# detector — enumeration/pruning determinism, the verify pre-flight
# rejections and the GOMAXPROCS-independent plan, store round-trip,
# crash tolerance and single-file refusal, the persisted pre-flight
# verdicts (reopen, damage, version skew, concurrent plans), the
# Evaluate chunk loop
# (GOMAXPROCS-independent records, stopping between chunks), the
# cold-then-warm byte-identical-report gate, the command-line parsers
# chipletdse binds its flags with (cmd/internal/cli, shared by every
# command) — then the parallel certification pool
# (VerifyEach), the certifier's pinned output (TestCertificateGolden),
# its certificate and table addresses on the five 64-chiplet
# build-compiled systems (TestLargeSystemCertificates), its report,
# certificate and tables unchanged whatever the number of pass-1
# destination blocks running at once (TestCertifyIndependentOfBlocks:
# those systems, the pre-flight bounds, the negative fixtures,
# truncation and panics), its escape-walk
# findings on walks that share suffixes (TestEscapeWalkSharedSuffix), the
# dependencies and panic point of a continuation only pass 2 asks
# (TestDeadEndContinuation),
# chipletverify's pinned hypercube-2 livelock verdict
# (TestPinsHypercube2LivelockVerdict), the pinned certificate address and
# verify.Version (TestCertificateDeterministic,
# TestVersionPinsCertifier), the completeness of the routing-structure
# key verdicts are stored under (TestRoutingStructureKeyComplete), plus
# the seed corpora of the Pareto-frontier invariant and store-line
# round-trip fuzz targets.
test-dse:
	$(GO) test -race ./internal/dse ./cmd/internal/cli
	$(GO) test -race -run 'VerifyEach|CertificateGolden|LargeSystemCertificates|CertifyIndependentOfBlocks|EscapeWalkShared|DeadEndContinuation|PinsHypercube2|CertificateDeterministic|Version|RoutingStructureKey' . ./internal/verify ./cmd/chipletverify
	$(GO) test -race -run 'FuzzParetoFrontier|FuzzStoreLine' ./internal/dse

# test-daemon runs the campaign-daemon matrix under the race detector:
# the service core (journal replay, drain/requeue, done/failed/deadline/
# cancel classification, unresumable-checkpoint fallback, HTTP
# endpoints, submit-time spec validation and the FuzzJobSpec seed
# corpus), the backoff policy, the self-healing
# JSONL loader, the sharded-cache merge gate (with the legacy gob-line
# store in internal/dse/testdata), batch-cancellation through
# the module root, and the chipletd process-level acceptance tests —
# SIGKILL kill-resume and SIGTERM drain against a real daemon.
test-daemon:
	$(GO) test -race ./internal/service/... ./internal/jsonl ./cmd/chipletd
	$(GO) test -race -run 'RunMany' .
	$(GO) test -race -run 'Shard|Merge|Quarantine' ./internal/dse

# test-coordinator runs the multi-host fleet matrix under the race
# detector: the coord package (lease expiry/fencing, journal replay
# across coordinator restarts, dead-fleet degradation, merge-conflict
# poisoning, distributed-vs-sequential frontier identity over real HTTP
# workers) plus the chipletd chaos acceptance test — a real worker
# daemon SIGKILLed mid-DSE, with the frontier still byte-identical to
# the single-machine run and zero duplicate simulations beyond the
# killed worker's unreported tail.
test-coordinator:
	$(GO) test -race -timeout 20m ./internal/service/coord
	$(GO) test -race -timeout 20m -run 'Coordinator|SigtermRequeues' ./cmd/chipletd

# test-workload runs the trace/replay/QoS matrix under the race detector:
# the trace format round-trip and typed-error table, the live-run
# recorder, the causal replayer and AI-scale-out generator (snapshot
# round-trips included), the per-class QoS statistics and tiny-sample
# percentile tables, and the root-level acceptance gates —
# a recorded hypercube trace replaying bit-identically under all three
# cycle engines and across mid-replay cross-engine checkpoint/resume.
# Finishes by replaying the trace-round-trip fuzz seed corpus.
test-workload:
	$(GO) test -race -run 'Trace|Record|Replay|AIScaleOut|Percentile|ClassS|Workload|ParseFlag|SpecHash|Split' ./internal/workload ./internal/traffic ./internal/stats .
	$(GO) test -race -run FuzzTraceRoundTrip ./internal/traffic

# bench runs the one benchmark (bench/README.md): seven workloads timed
# end to end, one traced pass, the report in .bench_build/report.json.
bench:
	$(GO) run ./bench

# bench-compare judges this checkout against BASE, any git revision that
# has bench/: it checks BASE out into a worktree under .bench_build/, runs
# N default benchmark passes per side (alternating which side goes
# first), then prints `bench -compare <base set> <head set>` and exits
# with its status — 1 on any `worse` row, failed op or digest mismatch.
# Each pass takes about two minutes, so this stays out of check.
#
#	make bench-compare BASE=HEAD~1 [N=4]
N ?= 4
bench-compare:
	@if [ -z "$(BASE)" ]; then echo "bench-compare: usage: make bench-compare BASE=<rev> [N=4]" >&2; exit 2; fi; \
	if ! git cat-file -e "$(BASE)^{tree}" 2>/dev/null; then echo "bench-compare: $(BASE) is not a git revision" >&2; exit 2; fi; \
	if ! git cat-file -e "$(BASE):bench/main.go" 2>/dev/null; then echo "bench-compare: $(BASE) has no bench/ directory; nothing to compare against" >&2; exit 2; fi; \
	wt=.bench_build/base; out=.bench_build/compare; \
	trap 'git worktree remove --force '$$wt' 2>/dev/null; git worktree prune' EXIT; trap 'exit 130' INT TERM; \
	git worktree remove --force $$wt 2>/dev/null; git worktree prune; \
	git worktree add --quiet --detach $$wt "$(BASE)" || exit 2; \
	rm -rf $$out; mkdir -p $$out; abs=$$(cd $$out && pwd); a=; b=; \
	for i in $$(seq 1 $(N)); do \
		if [ $$((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi; \
		for side in $$order; do \
			dir=.; if [ $$side = base ]; then dir=$$wt; fi; \
			echo "bench-compare: pass $$i/$(N), $$side"; \
			(cd $$dir && $(GO) run ./bench -out $$abs/$$side-$$i.json > $$abs/$$side-$$i.log 2>&1) || \
				echo "bench-compare: $$side pass $$i exited $$? (see $$out/$$side-$$i.log)"; \
		done; \
		a=$${a:+$$a,}$$out/base-$$i.json; b=$${b:+$$b,}$$out/head-$$i.json; \
	done; \
	$(GO) run ./bench -compare $$a $$b

# check is the pre-PR gate: gofmt, go vet, build, the full test suite
# under the race detector and the determinism linter over ./... . The
# final -race pass skips the EQUIV_RACE tests (all in . and
# ./internal/router), which test-equiv has just run under -race, so each
# runs there once. It runs no wall-clock gate; performance is judged by
# bench-compare.
check: fmt vet build test-fault test-checkpoint test-equiv test-dse test-daemon test-coordinator test-workload
	$(GO) test -race -timeout 20m -skip '$(EQUIV_RACE)' ./...
	$(GO) run ./cmd/chipletlint ./...

figures:
	$(GO) run ./cmd/chipletfig -scale quick -out results all
