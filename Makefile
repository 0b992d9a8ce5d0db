GO ?= go

.PHONY: all build vet fmt test race race-soak bench bench-quick allocs profile fuzz chaos chaos-repl chaos-cluster contract matrix stream-conformance ci artifacts benchreport clean

# Committed shard-scaling floor for `make bench-quick`: the 4-shard
# batching win measured for BENCH_6 sits at ~4x on the reference box;
# 3.0 leaves noise headroom while still catching any real regression
# of the lock-free ingest path.
MIN_SPEEDUP4 ?= 3.0

# Committed streaming detection-latency floor for `make bench-quick`:
# the online path's worst detected-attack latency in the deterministic
# zoo comparison sits at ~8.7 rating-days; 12 leaves headroom while
# still failing if streaming ever slips past it on an attack it
# catches, or loses an attack the batch path catches.
MAX_STREAM_LATENCY ?= 12

# Per-target budget for the fuzz sweep; go-fuzz corpora live in
# testdata/fuzz and regressions found there replay in plain `go test`.
FUZZTIME ?= 10s

# Seeds per chaos sweep; each seed drives an independent
# fault-injection schedule (short writes, sync errors, crashes).
CHAOS_SEEDS ?= 64

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails, listing the files, when any Go file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-soak replays the seeded concurrent workloads under the race
# detector with fresh schedules (-count=1): router-fed sharded engines
# cross-checked against the single-threaded oracle, shard-count
# invariance, and the sharded daemon's journal round trips.
race-soak:
	$(GO) test -race -count=1 -run 'Soak|Invariance|Router|ShardDaemon|ShardJournal' \
		./internal/shard/ ./cmd/ratingd/

bench:
	$(GO) test -bench=. -benchmem .

# bench-quick is the ingest-perf smoke: just the shard-scaling section
# of the benchreport, gated on the committed speedup floor. It fails —
# and so fails `make ci` — if the lock-free ingest path's 4-shard win
# regresses below MIN_SPEEDUP4.
bench-quick:
	$(GO) run ./cmd/benchreport -run tab1 -walrecords 0 -telemetryreps 0 \
		-servingratings 0 -replratings 0 -detection "" -streamratings 0 \
		-clusterratings 0 \
		-minspeedup4 $(MIN_SPEEDUP4) -maxstreamlatency $(MAX_STREAM_LATENCY) \
		-out /dev/null

# allocs runs the steady-state allocation pins (testing.AllocsPerRun),
# which only exist in non-race builds — the race runtime's bookkeeping
# would drown the counts — so ci needs this plain pass on top of its
# race pass.
allocs:
	$(GO) test -count=1 -run 'Allocs' ./internal/shard/

# profile writes CPU and heap profiles of the full benchreport run;
# inspect with `go tool pprof cpu.prof` / `go tool pprof mem.prof`.
profile:
	$(GO) run ./cmd/benchreport -out /dev/null -cpuprofile cpu.prof -memprofile mem.prof

# fuzz runs each fuzz target for FUZZTIME: WAL frame parsing and record
# decoding (corrupt bytes must error, never panic), the server's
# rating-batch JSON decoder (hostile bodies must map to 4xx), the
# NDJSON stream framing (hostile streams must keep the in-band error
# protocol intact), and the stream fast-path parser (differential
# against the strict decoder, bit-identical or bail).
fuzz:
	$(GO) test -fuzz FuzzParseFrames -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -fuzz FuzzDecodeRecord -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -fuzz FuzzSubmitRatings -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -fuzz FuzzStreamNDJSON -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -fuzz FuzzParseRatingLine -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -fuzz FuzzShardIndex -fuzztime $(FUZZTIME) ./internal/shard/
	$(GO) test -fuzz FuzzCollusionGraph -fuzztime $(FUZZTIME) ./internal/collusion/

# ci is the gate every change must pass: formatting, static checks, a
# full build, the test suite under the race detector, the non-race
# allocation pins, a fresh-schedule soak of the sharded engine, a
# one-shot smoke run of the tab1 macro benchmark (exercises the
# parallel Monte-Carlo path end to end without benchmark-grade
# runtimes), the chaos sweep, the detector×attack matrix grid, and the
# shard-scaling floor check.
ci:
	$(MAKE) fmt
	$(MAKE) vet
	$(GO) build ./...
	$(GO) test -race ./...
	$(MAKE) allocs
	$(MAKE) race-soak
	$(MAKE) stream-conformance
	$(MAKE) contract
	$(GO) test -run=NONE -bench=BenchmarkTab1 -benchtime=1x .
	$(MAKE) chaos
	$(MAKE) chaos-repl
	$(MAKE) chaos-cluster
	$(MAKE) matrix
	$(MAKE) bench-quick

# matrix prints the detector×attack benchmark grid: every detector
# stack (AR charging, collusion graph, iterative filtering, combined)
# against every adversary-zoo strategy, scored by AUC, detection rate,
# detection latency, and aggregation error. The grid is bit-identical
# at any -workers count; the checked-in regression pin is
# testdata/golden_matrix.txt (regenerate deliberately with
# `go test -run TestGoldenMatrix -update .`).
matrix:
	$(GO) run ./cmd/experiments -exp matrix -mode quick

# stream-conformance pins the streaming detection path to the batch
# oracle under the race detector: byte-identical fingerprints across
# shard counts with the aux detectors live, the incremental collusion
# accumulator's property equivalence with batch Detect, and the
# mid-window crash — recovery must replay to the exact suspicion and
# trust state of a run that never died.
stream-conformance:
	$(GO) test -race -count=1 -run 'TestStream' ./internal/shard/
	$(GO) test -race -count=1 -run 'TestAccumulator' ./internal/collusion/
	$(GO) test -race -count=1 -run 'TestStreamChaosMidWindowCrash' ./cmd/ratingd/

# contract replays the checked-in wire-contract fixtures: every v1
# endpoint's golden response, every error code in the catalogue, and
# the envelope validity of each non-2xx body. Regenerate intentional
# contract changes with:  go test ./internal/server -run TestWireContract -update
contract:
	$(GO) test -count=1 -run 'TestWireContract|TestContractFixtures' ./internal/server/

# chaos runs the fault-injection and crash-recovery suites under the
# race detector with a dense seed sweep: every-boundary crash replay,
# torn-tail truncation, the seeded failpoint schedules in internal/wal
# and internal/faultinject, and the admission-control overload soak
# (4x capacity; sheds must be typed 429s and the server must drain
# back to baseline).
chaos:
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(GO) test -race -count=1 \
		-run 'Chaos|Crash|Torn|Recover|Fault|Inject|Durab|Overload' \
		./internal/wal/ ./internal/faultinject/ ./cmd/ratingd/ ./internal/server/

# chaos-repl soaks the replication path under the race detector:
# primary killed mid-batch (promotion must lose zero acked records),
# follower killed mid-snapshot-bootstrap (partial snapshot must never
# touch the engine; the re-bootstrap must converge), a flapping stream
# proxy (>= 20 severs/garbles; every flap must re-converge to lag 0
# with resyncs observed), plus the daemon-level failover wiring
# (replica gate, manual and primary-death promotion).
chaos-repl:
	$(GO) test -race -count=1 -run 'TestChaosRepl|TestTwoNodeConformance|TestFollowerBootstrap' ./internal/repl/
	$(GO) test -race -count=1 -run 'TestDaemonFollower|TestDaemonAutoPromote' ./cmd/ratingd/

# chaos-cluster soaks the partitioned serving tier under the race
# detector: the N-node byte-conformance matrix against the
# single-system oracle, the wrong_node/stale_epoch contract paths, and
# the daemon-level node-kill soak — the dead keyspace range must shed
# with typed 503s, every acked write must survive the hard kill, and
# the restarted member must recover from its WAL and re-converge to
# the oracle's exact state.
chaos-cluster:
	$(GO) test -race -count=1 -run 'TestCluster|TestTable|TestEvenTable|TestOwner|TestDoc|TestWrongNode|TestStaleEpoch|TestRouter|TestSingleNodeCluster|TestMergedPagination|TestMemberRefuses' ./internal/cluster/
	$(GO) test -race -count=1 -run 'TestChaosCluster' ./cmd/ratingd/

artifacts:
	$(GO) run ./cmd/experiments -run all -mode full -csv artifacts/

benchreport:
	$(GO) run ./cmd/benchreport -out BENCH_10.json

clean:
	rm -rf artifacts/
