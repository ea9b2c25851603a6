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

# Per-target fuzzing budget of fuzz-smoke: CI's smoke run keeps the default,
# the nightly workflow passes FUZZTIME=5m.
FUZZTIME ?= 10s

.PHONY: all build test vet lint loc race fuzz-smoke trace-check ci bench bench-base bench-real bench-real-compare

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
# (determinism, float equality, discarded errors) and the whole-program
# passes (`guarded by` mutex annotations and lock discipline, the ef_* metric
# catalog and spans) — see DESIGN.md §7 and §12. Suppress a finding with
# `//eflint:ignore <analyzer> <reason>` on the same or preceding line. The
# second invocation exercises the machine interface (-json) that editor and
# bot integrations consume. nilness is a gated extra: scripts/nilness.sh runs
# the x/tools analyzer when the environment provides it and skips cleanly
# offline.
lint:
	$(GO) run ./cmd/eflint ./...
	$(GO) run ./cmd/eflint -json ./internal/analysis/...
	./scripts/nilness.sh

# loc prints the non-test Go line count of every internal/* package, every
# cmd/* command and benchmark, and the module total. CI prints it in the lint job's log, so the ROADMAP's LOC
# trend has a recorded source per commit.
loc:
	./scripts/loc.sh

# race runs every test under the race detector — each subsystem's suite
# (obs, faults, agent, cluster, store, serverless, transfer, sim, front door,
# efserver) once.
race:
	$(GO) test -race ./...

# fuzz-smoke gives each fuzz target a budget of FUZZTIME — enough to replay
# the corpus and shake out shallow regressions without stalling CI.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzFill -fuzztime=$(FUZZTIME) ./internal/plan/
	$(GO) test -run=^$$ -fuzz=FuzzAdmissionControl -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run=^$$ -fuzz=FuzzJournalRoundTrip -fuzztime=$(FUZZTIME) ./internal/store/
	$(GO) test -run=^$$ -fuzz=FuzzCheckpointTransfer -fuzztime=$(FUZZTIME) ./internal/transfer/
	$(GO) test -run=^$$ -fuzz=FuzzParallelSimEquivalence -fuzztime=$(FUZZTIME) ./internal/sim/
	$(GO) test -run=^$$ -fuzz=FuzzSubmitRequest -fuzztime=$(FUZZTIME) ./internal/frontdoor/
	$(GO) test -run=^$$ -fuzz=FuzzCompact -fuzztime=$(FUZZTIME) ./internal/topology/
	$(GO) test -run=^$$ -fuzz=FuzzReplayRecord -fuzztime=$(FUZZTIME) ./internal/serverless/

# trace-check runs the one command no test does: an end-to-end efsim trace
# export (the artifact the Perfetto quickstart in README loads).
trace-check:
	$(GO) run ./cmd/efsim -seed 7 -jobs 40 -trace-out trace.json

ci: build vet lint loc race fuzz-smoke trace-check

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
