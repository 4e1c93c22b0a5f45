# syncstamp — reproduction of "Timestamping Messages in Synchronous
# Computations" (Garg & Skawratananond, ICDCS 2002).

GO ?= go

.PHONY: all build vet lint lint-baseline test race net-test obs-test chaos-test load-test bench microbench fuzz repro examples clean

all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	gofmt -l . | tee /dev/stderr | wc -l | grep -q '^0$$'

# Static analysis gate: the repo-specific analyzers (cmd/tslint enforces the
# clock & determinism invariants of DESIGN.md "Enforced invariants") plus
# go vet and gofmt, so the local gate matches the CI lint job. The analyzer
# self-tests then prove every analyzer bites: the golden tests pin the exact
# diagnostics each seeded-violation package must produce and require each
# clean twin to stay silent, and the two spot checks below keep the
# end-to-end driver honest (a concurrency seed must fail, across module and
# per-package analyzers alike).
lint: vet
	$(GO) run ./cmd/tslint -baseline lint.baseline ./...
	$(GO) test -run 'TestAnalyzersGolden|TestNolintPolicy' ./internal/lint
	! $(GO) run ./cmd/tslint internal/lint/testdata/src/vectoralias/bad >/dev/null 2>&1
	! $(GO) run ./cmd/tslint internal/lint/testdata/src/spinbound/bad >/dev/null 2>&1

# Refresh the accepted-findings baseline (see lint.baseline header). The
# committed file is empty: the module is clean, and CI fails on anything new.
lint-baseline:
	$(GO) run ./cmd/tslint -write-baseline lint.baseline ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Networking subsystem gate: the node runtime under the race detector, the
# coalescing writer's determinism and end-of-run flush again on one CPU (the
# scheduler shape DESIGN §12's flush yield exists for), the BYE's own flush
# twenty times over (the test pins one CPU itself), the one-receive wait
# tests (Stop, expiries and stale answers meeting a full reply slot) ten
# times over and again at GOMAXPROCS=1, where a non-blocking post and a
# parked receive interleave differently, csp's join, stop, deadline,
# failure and stash tests ten times over (they drive node's local path and
# its Join on one node), the two rendezvous benchmarks for a few thousand
# messages (`go test` compiles benchmarks but never runs them, and
# BenchmarkTCPRendezvous is the hot path's probe), plus the tsnode
# integration test (real OS processes over localhost TCP).
net-test:
	$(GO) test -race ./internal/wire ./internal/node
	GOMAXPROCS=1 $(GO) test -race -run 'TestCoalescingDeterminism|TestCloseDeliversInheritedFlush' ./internal/node
	$(GO) test -race -count=20 -run 'TestByeErrorCoversOnlyEarlierFrames' ./internal/node
	$(GO) test -race -count=10 -run 'TestWait' ./internal/node
	GOMAXPROCS=1 $(GO) test -race -run 'TestWait' ./internal/node
	$(GO) test -race -count=10 -run 'Join|Stop|Ops|Deadline|Drain|Failure|Stash' ./internal/csp
	$(GO) test -run '^$$' -bench 'BenchmarkTCPRendezvous|BenchmarkLoopRendezvous' -benchtime 2000x ./internal/node
	$(GO) test -race -run 'TestRunInProcessCluster|TestE2E' -v ./cmd/tsnode

# Observability gate: the obs package (including the zero-alloc-when-
# disabled and byte-stable-export acceptance tests, merge algebra, and
# critpath determinism) under the race detector; the recorder tests again
# ten times over (per-process ring wraparound, interleaving-independent
# rings, and processes recording their first event while /debug/flight is
# scraped); the runtime hook + rollup + event-file tests in csp/node; and
# the trace-report/critical-path oracles plus the full e2e (obs endpoints,
# each -obs-trace file equal to its flight dump, event files through
# tsanalyze, byte-identical critical-path profiles across two runs).
obs-test:
	$(GO) test -race ./internal/obs
	$(GO) test -race -count=10 -run 'Recorder|Flight|Scrape|DisabledZeroAlloc' ./internal/obs
	$(GO) test -race -run 'Obs|Dropped|TraceReport|Rollup|Flight|EventFile|Malformed|CriticalPath' ./internal/csp ./internal/node ./cmd/tsanalyze
	$(GO) test -race -run 'TestE2E' -v ./cmd/tsnode

# Fault-injection gate: the deterministic injector, the synchronizer and
# the loss-tolerant protocol under the race detector — the internal/sync
# per-link record, health and backoff units; the wire relay the injector
# re-encodes delivered frames with, ten times over, its idle reorder flush
# racing a writer included; the chaos matrix and the full async chaos
# matrix (every topology family × 8 seeds × loss to 20% × the three jitter
# profiles, stamps byte-equal to the sequential oracle); resets, exclusion
# by connection loss and by suspicion with its property-level check, then
# the exclusion and suspicion tests again (-count=5) and the node's reply
# slot and receive-loop tests (-count=10), since exclusion answers into
# slots and mailboxes while senders register, take ACKs or stop; the two
# redial tests over TCP (-count=5: the reconnect window and Stop each end
# a redial);
# journal restore and the synchronizer's cluster rollup — plus the chaos
# e2e runs over real OS processes: fault-plan trace determinism, the jittered
# kill -9 run, and the kill -9 crash-recovery soak three times over (every
# node's flight dump must exist and the merged dumps replay-verify against
# the sequential oracle; a scheduled crash that never fires fails it).
chaos-test:
	$(GO) test -race ./internal/sync
	$(GO) test -race -count=10 -run Relay ./internal/wire ./internal/fault
	SYNCSTAMP_ASYNC_MATRIX=full $(GO) test -race -timeout 30m ./internal/fault
	$(GO) test -race -count=5 -run 'Exclu|Suspicion' ./internal/fault
	$(GO) test -race -run 'TestJournal|TestRestore|TestLateAck|TestDialClassification|TestAsync|TestRecoveryRunsTheSynchronizer' ./internal/node
	$(GO) test -race -count=10 -run 'TestAsyncAbortSurvivesSuspicion|TestSendDropsStaleAnswer|TestStopUnblocksParkedOps|TestRecvFrom' ./internal/node
	$(GO) test -race -count=5 -run 'TestRedialEndsWithWindow|TestRedialEndsOnStop' ./internal/node
	$(GO) test -race -run 'TestE2EFaultPlanDeterministicTraces|TestE2EAsyncKillNineRecovers' -v ./cmd/tsnode
	$(GO) test -race -count=3 -run 'TestE2EKillNineRecoverySoak' -v ./cmd/tsnode

# Load/collector gate: the open-loop driver and the sharded collector tree
# under the race detector (incremental oracle, spill recovery, leaf-crash
# and straggler paths), the tree's per-process order under tsload's lock
# discipline ten times over (concurrent writers share each leaf's batch
# and its recycled buffers), the shard verifier and tree ingest benchmarks
# for a few thousand records (`go test` compiles benchmarks but never runs
# them), then the 100k-client scale acceptance run and a spilling tsload
# control run end to end.
load-test:
	$(GO) test -race ./internal/load ./internal/check ./cmd/tsload
	$(GO) test -race -run 'TestCollector|TestSpill|TestCollectTimeout' ./internal/node
	$(GO) test -race -count=10 -run 'TestCollectorTreeOrderUnderProcessLocks' ./internal/node
	$(GO) test -run '^$$' -bench 'BenchmarkShardVerifierIngest|BenchmarkCollectorTreeIngest' -benchtime 5000x ./internal/check ./internal/node
	$(GO) test -run TestLoadHundredThousandClients -v ./internal/load
	dir=$$(mktemp -d) && $(GO) run ./cmd/tsload -servers 8 -clients 5000 -msgs 2 \
		-zipf 0.9 -leaves 4 -spill-dir $$dir -segment 512 -control && rm -rf $$dir

# The repository benchmark (tsperf/README.md): tsperf runs its four
# workloads at the shipped defaults with a fixed seed, verifies every
# iteration against the sequential replay, and writes one schema-2
# BENCH_<workload>.json per workload, environment included. The committed
# BENCH files at the repo root are refreshed by running this and checking
# in the result.
bench:
	bash tsperf/run.sh --seed 1 --out .

microbench:
	$(GO) test -bench=. -benchmem ./...

# Short fuzz pass over every fuzz target (seeds always run under `make test`).
fuzz:
	$(GO) test -fuzz=FuzzReadText -fuzztime=10s ./internal/trace
	$(GO) test -fuzz=FuzzReadText -fuzztime=10s ./internal/graph
	$(GO) test -fuzz=FuzzReadText -fuzztime=10s ./internal/decomp
	$(GO) test -fuzz=FuzzCompare -fuzztime=10s ./internal/vector
	$(GO) test -fuzz=FuzzStampTrace -fuzztime=10s ./internal/core
	$(GO) test -fuzz=FuzzDecodeFrame -fuzztime=10s ./internal/wire
	$(GO) test -fuzz=FuzzRelay -fuzztime=10s ./internal/wire
	$(GO) test -fuzz=FuzzFaultPlan -fuzztime=10s ./internal/fault
	$(GO) test -fuzz=FuzzNolint -fuzztime=10s ./internal/lint
	$(GO) test -fuzz=FuzzJournalReplay -fuzztime=10s ./internal/node

# Regenerate every paper figure/claim table into paperbench_output.txt.
repro:
	$(GO) run ./cmd/paperbench | tee paperbench_output.txt
	@grep -q FAIL paperbench_output.txt && echo "REPRODUCTION DRIFT" && exit 1 || echo "all experiments OK"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/clientserver
	$(GO) run ./examples/tree20
	$(GO) run ./examples/debugger
	$(GO) run ./examples/figure6
	$(GO) run ./examples/pipeline
	$(GO) run ./examples/recovery

clean:
	$(GO) clean ./...
