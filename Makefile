# Developer entry points, and the one copy of the CI commands: every job in
# .github/workflows/ci.yml runs targets of this file, so a local `make ci`
# runs what CI runs.

GO ?= go

# The wall-time-gated benchmarks CI compares between the PR base and head:
# two paper experiments end to end, the fill kernel on Philly demands, one
# fill whose lower levels fall short part-way on a congested grid, one
# Schedule at a moved now over 200 jobs (a full refill; watch its B/op), the
# same over 200 running jobs most of which have spent their rescale budget,
# one refusal and its counter-offer search over 200 active jobs at a fresh
# instant, one snapshot of a durable platform with 5 000 retained terminal
# jobs, one durable submission over 200 active jobs (watch its records/op
# and syncs/op: both 1), and one defragmenting buddy allocation on a
# fragmented 2 048-GPU cluster.
BENCH_GATE = BenchmarkFig6aTestbedSmall|BenchmarkFig7aAllocationTimeline|BenchmarkFillPhilly|BenchmarkFillContended|BenchmarkScheduleMovedNow|BenchmarkScheduleRescaled|BenchmarkCounterOffer|BenchmarkSnapshotRetained|BenchmarkSubmitDurable|BenchmarkBuddyCompact

# Where `make bench-real` writes its run files (one JSON per workload, seed
# and traced/untraced run; see benchmark/README.md).
BENCH_REAL_OUT ?= .bench_build/runs

.PHONY: all build test vet lint loc race fuzz-smoke obs-check faults-check store-check trace-check transfer-check sim-check front-check ci bench bench-base bench-real bench-real-compare

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet also fails when gofmt would reformat any file, listing the files.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

# lint runs the repo's own analyzers (cmd/eflint): the per-package passes
# (determinism, `guarded by` mutex annotations, float equality, discarded
# errors) and the whole-program passes (record-then-apply journaling,
# interprocedural lock discipline, the ef_* metric catalog) — see DESIGN.md
# §12. Suppress a finding with `//eflint:ignore <analyzer> <reason>` on the
# same or preceding line. The second invocation exercises the machine
# interface (-json) that editor and bot integrations consume. nilness is a
# gated extra: scripts/nilness.sh runs the x/tools analyzer when the
# environment provides it and skips cleanly offline.
lint:
	$(GO) run ./cmd/eflint ./...
	$(GO) run ./cmd/eflint -json ./internal/analysis/...
	./scripts/nilness.sh

# loc prints the non-test Go line count of every internal/* package and the
# module total. CI prints it in the lint job's log, so the ROADMAP's LOC
# trend has a recorded source per commit.
loc:
	./scripts/loc.sh

race:
	$(GO) test -race ./...

# fuzz-smoke gives each fuzz target a short budget — enough to replay the
# corpus and shake out shallow regressions without stalling CI. The nightly
# workflow runs the same targets at -fuzztime=5m.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzFill -fuzztime=10s ./internal/plan/
	$(GO) test -run=^$$ -fuzz=FuzzAdmissionControl -fuzztime=10s ./internal/core/
	$(GO) test -run=^$$ -fuzz=FuzzJournalRoundTrip -fuzztime=10s ./internal/store/
	$(GO) test -run=^$$ -fuzz=FuzzCheckpointTransfer -fuzztime=10s ./internal/transfer/
	$(GO) test -run=^$$ -fuzz=FuzzParallelSimEquivalence -fuzztime=10s ./internal/sim/
	$(GO) test -run=^$$ -fuzz=FuzzSubmitRequest -fuzztime=10s ./internal/frontdoor/
	$(GO) test -run=^$$ -fuzz=FuzzCompact -fuzztime=10s ./internal/topology/

# obs-check exercises the observability core under the race detector (the
# bus and registry are the only pieces shared across goroutines by design)
# and lints it with the repo's analyzers.
obs-check:
	$(GO) test -race ./internal/obs/
	$(GO) run ./cmd/eflint ./internal/obs/

# faults-check exercises the fault-tolerant control plane under the race
# detector: the deterministic injector, the hardened RPC controller, and the
# chaos end-to-end (seeded agent crash mid-training → heartbeat detection →
# checkpoint-mirrored recovery, fixed seed 42 in chaos_test.go), then lints
# those packages with the repo's analyzers.
faults-check:
	$(GO) test -race ./internal/faults/ ./internal/agent/ ./internal/cluster/
	$(GO) run ./cmd/eflint ./internal/faults/ ./internal/agent/ ./internal/cluster/

# store-check exercises the durable control plane (DESIGN.md §11) under the
# race detector: the journal + snapshot store itself, the serverless
# record-then-apply path with its crash-restart equality test, and the
# efserver SIGKILL/restart end-to-end, then lints those packages with the
# repo's analyzers.
store-check:
	$(GO) test -race ./internal/store/ ./internal/serverless/ ./cmd/efserver/
	$(GO) run ./cmd/eflint ./internal/store/ ./internal/serverless/ ./cmd/efserver/

# trace-check exercises the causal tracing stack: the tracer and Chrome
# trace-event encoder, the kind→span table that derives point spans from
# events (internal/obs), the byte-identical golden-trail tests in the
# simulator and the journal-correlated span tests of the live platform, all
# under the race detector, and an end-to-end efsim trace export (the same
# artifact the Perfetto quickstart in README loads).
trace-check:
	$(GO) test -race ./internal/obs/ ./internal/obs/tracing/ ./internal/sim/
	$(GO) test -race -run 'Span|Trace' ./internal/serverless/
	$(GO) run ./cmd/efsim -seed 7 -jobs 40 -trace-out trace.json

# transfer-check exercises the checkpoint data plane (DESIGN.md §14) under
# the race detector: chunk framing, CRC verification and resume logic in
# internal/transfer, plus the end-to-end fetch/push/migrate and torn-mirror
# suites that ride it in internal/agent and internal/cluster, then lints the
# data-plane package with the repo's analyzers.
transfer-check:
	$(GO) test -race ./internal/transfer/
	$(GO) test -race -run 'Transfer|Staged|Chunk' ./internal/agent/ ./internal/cluster/
	$(GO) run ./cmd/eflint ./internal/transfer/

# sim-check proves the sharded parallel engine (DESIGN.md §15) is
# byte-identical to the serial loop under the race detector — the full oracle
# suite: worker-sweep and shard-count equivalence, GOMAXPROCS=1 progress, the
# golden determinism/span trails, and the shard-aware MaxSimSec abort. The
# benchmark's sim_philly workload measures the worker sweep (sim.speedup_wN).
sim-check:
	$(GO) test -race -run 'Parallel|MaxSimSec|Determinism' ./internal/sim/

# front-check exercises the multi-tenant front door (DESIGN.md §16) under
# the race detector: tenant routing, rate limits, GPU quotas, batched
# verdicts, the spare-GPU rebalancer and per-shard crash-restart
# replay in internal/frontdoor; the batched submission path (one journal
# record and one plan-cache fold per batch, replay byte-identical at every
# crash prefix) in internal/serverless plus the efserver SIGKILL/restart
# end-to-end; then lints the package. The benchmark's live_* workloads
# measure the tier's throughput and tail (frontdoor.burst_*).
front-check:
	$(GO) test -race ./internal/frontdoor/
	$(GO) test -race -run 'Batch|Crash' ./internal/serverless/ ./cmd/efserver/
	$(GO) run ./cmd/eflint ./internal/frontdoor/

ci: build vet lint loc race fuzz-smoke obs-check faults-check store-check trace-check transfer-check sim-check front-check

# bench runs the gated benchmarks and, when a baseline exists, applies the
# regression gate (CI's bench job runs these two targets). Capture the
# baseline on the base commit with `make bench-base`, switch to your change,
# then `make bench`.
bench:
	$(GO) test -run=^$$ -bench '$(BENCH_GATE)' -benchtime=1x -count=6 . | tee bench-head.txt
	@if [ -f bench-base.txt ]; then \
		$(GO) run ./cmd/benchgate -base bench-base.txt -head bench-head.txt; \
	else \
		echo "bench: no bench-base.txt — run 'make bench-base' on the base commit to enable the gate"; \
	fi

bench-base:
	$(GO) test -run=^$$ -bench '$(BENCH_GATE)' -benchtime=1x -count=6 . | tee bench-base.txt

# bench-real runs the real-path benchmark BENCHMARK.json declares — every
# workload, untraced (end-to-end metrics) then traced (per-layer metrics) —
# on seed 1. To judge a change: run it on the base commit and on the change
# into two directories (make bench-real BENCH_REAL_OUT=<dir>), then
# `make bench-real-compare A=<base dir> B=<change dir>` holds every
# end-to-end metric against its BENCHMARK.json bound. CI runs this target
# as a non-gating job.
bench-real:
	$(GO) run ./benchmark -seed 1 -out $(BENCH_REAL_OUT)

bench-real-compare:
	$(GO) run ./benchmark -compare $(A) $(B)
