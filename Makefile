# Developer entry points. `make ci` is the full gate; the chaos soak
# runs under the race detector because that is where fan-out bugs live,
# and the differential fuzz soak cross-checks the engine against the
# row-at-a-time oracle across the full acceleration matrix.
#
# Replaying a fuzz divergence: every report prints its seed. Re-run
# that exact world with
#
#	go test ./internal/oracle -run TestDifferential -seed=<n> -v
#
# (add -trials/-queries to match a longer soak). To watch the harness
# catch a planted engine bug — a flipped pruning comparison — run
#
#	make fuzz-bug
#
# which builds with `-tags oraclebug` and must FAIL the differential
# test while PASSING TestForcedBugCaught with a minimized report.

GO ?= go

.PHONY: all vet build test race chaos fuzz fuzz-bug crash txn serve integrity bench bench-smoke obs gclean systables lakebench-test ci

all: build

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The chaos soak: TPC-H under injected object-store faults, race-clean.
chaos:
	$(GO) test -race -run 'TestChaos' -v ./internal/resilience/

# The differential soak: ≥200 generated queries through every
# {cache, DPP, prune granularity, faults} × {pre/post compaction}
# cell, engine vs oracle, bit-identical or the build fails.
fuzz:
	$(GO) test -run 'TestDifferential|TestIcebergExportEquality' -v ./internal/oracle/

# Demonstrate the harness catches a planted pruning bug (not in ci:
# the tagged build is intentionally broken).
fuzz-bug:
	$(GO) test -tags oraclebug -run 'TestForcedBugCaught' -v ./internal/oracle/

# The crash-point sweep: kill the process at every labeled step of the
# flush/batch-commit/compaction/Iceberg-export protocols, recover from
# the journal, and diff against the oracle. Prints the seed and a
# replay command on failure; re-run one world with
#
#	go test ./internal/oracle -run TestCrashSweep -seed=<n> -v
crash:
	$(GO) test -race -run 'TestCrashSweep' -v ./internal/oracle/

# Observability gate: registry/span tests under the race detector,
# the EXPLAIN ANALYZE goldens, the zero-alloc disabled-span benchmark,
# and the obslint sweep that keeps new counters in the registry.
obs:
	$(GO) vet ./internal/obs/ ./internal/engine/
	$(GO) test -race ./internal/obs/
	$(GO) test -race -run 'TestExplainAnalyze|TestQuerySpanTree|TestChromeTrace|TestEngineRegistryCounters' ./internal/engine/
	$(GO) test -run '^$$' -bench BenchmarkSpanDisabled -benchtime 100000x ./internal/obs/
	./scripts/obslint.sh

# The transaction gate: the interactive-transaction package under the
# race detector, plus the interleaved-schedule serializability oracle
# and its crash sweep (kill the process at every labeled step of the
# multi-table commit protocol, recover, re-drive the schedule, and
# require a serializable, orphan-free state). Replay one world with
#
#	go test ./internal/oracle -run TestTxnCrashSweep -seed=<n> -v
txn:
	$(GO) test -race ./internal/txn/
	$(GO) test -race -run 'TestTxn' -v ./internal/oracle/

# The query-service gate: admission control, weighted fair queuing,
# cancellation, and the seeded load harness under the race detector,
# then a short deterministic soak (E18 overload shape + same-seed
# bit-identical replay) and the serve-path differential diff.
serve:
	$(GO) test -race ./internal/serve/...
	$(GO) test -race -run 'TestE18' -v ./internal/exp/
	$(GO) test -run 'TestDifferentialServe' ./internal/oracle/

# The integrity gate: checksums end to end under injected silent
# corruption. Format-level bit-flip detection, WAL torn-write recovery,
# the scan-cache poisoning guard and quarantine containment, the
# budgeted scrubber, the corruption-injection determinism suite, the
# oracle corruption sweep (zero silent wrong answers), and the E19
# detect -> contain -> repair experiment.
integrity:
	$(GO) test -run 'TestRoundTrip|TestVerify' ./internal/colfmt/
	$(GO) test -race -run 'TestRecover' ./internal/wal/
	$(GO) test -race -run 'TestScanCache|TestQuarantined' ./internal/engine/
	$(GO) test -race ./internal/scrub/
	$(GO) test -run 'TestCorruption' ./internal/objstore/
	$(GO) test -run 'TestQuarantineLifecycle' ./internal/bigmeta/
	$(GO) test -run 'TestIntegrity' -v ./internal/oracle/
	$(GO) test -race -run 'TestE19' -v ./internal/exp/

# The GC-lean gate: arena-kernel parity with the eager path (bit-exact
# masks/batches including late-materialized dictionaries), per-kernel
# allocs/op budgets (a kernel that starts allocating again fails the
# build), arena lifetime safety under the race detector (query results
# must survive arena recycling; serve cursors copy out), and the E20
# experiment smoke: alloc/GC reduction, mixed-traffic QPS, variance
# cells. Full-scale snapshots are regenerated with
#
#	go run ./cmd/benchlake -json e15 e20
#
# and committed as BENCH_E15.json / BENCH_E20.json; a later plain
# `benchlake e20` fails if any variance cell regresses beyond the
# noise band recorded in the committed baseline.
gclean:
	$(GO) test -run 'TestGCLean' ./internal/vector/
	$(GO) test -race -run 'TestGCLean|TestArena' ./internal/engine/
	$(GO) test -race ./internal/arena/
	$(GO) test -race -run 'TestCursorSurvivesArenaRecycle' ./internal/serve/
	$(GO) test -run 'TestE20' -v ./internal/exp/

# The queryable-telemetry gate: the systables rings/trackers and the
# obs registry under the race detector, the direct-engine and
# serve-session system.* SQL paths (including the self-observation
# regression), the E21 overhead gate (recording on vs off must take
# bit-identical trajectories), and the obslint sweep that keeps every
# registered metric name documented in DESIGN.md.
systables:
	$(GO) test -race ./internal/systables/
	$(GO) test -race -run 'TestHistogramObserveConcurrent|TestSnapshotUnderConcurrentWriters' ./internal/obs/
	$(GO) test -run 'TestSystem' ./internal/engine/
	$(GO) test -race -run 'TestSelfObservation|TestServeShedRecorded|TestServeSessionsAndSLOTables|TestServeRecordsOnce' ./internal/serve/
	$(GO) test -run 'TestE21|TestRunTop' -v ./internal/exp/
	./scripts/obslint.sh

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Tiny-scale end-to-end run of the CPU-bound experiments (vectorized
# reader + execution kernels), emitting BENCH_E2.json / BENCH_E15.json
# for trend tracking. Timing thresholds are NOT enforced here — this
# only guards that the measured paths run end to end.
bench-smoke:
	$(GO) run ./cmd/benchlake -json e2 e15

# The benchmark's own tests (a separate module) at one and two cores:
# same-seed runs must report identical per-layer counts whatever
# GOMAXPROCS is.
lakebench-test:
	cd lakebench && $(GO) test -count=1 -cpu 1,2 ./...

ci: vet build test race obs chaos fuzz crash txn serve integrity gclean systables lakebench-test bench-smoke
