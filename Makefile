GO ?= go

.PHONY: build test vet examples bench bench-extract bench-scan bench-heap profile-scan profile-extract profile-ingest bench-ledger cover fuzz crash-test replication-test soak-test plan-shapes loc

build:
	$(GO) build ./...

# test runs static analysis first, then the full suite under the race
# detector (the graph store and query engine are concurrency-facing;
# the suite includes the join-strategy differential and golden-plan
# tests, the engine and the reference evaluator held to the pinned
# results listing and the engine to its pinned byte-budget charges, and
# TestConnectWholeReportsVisible, where a reader of a leader
# and its follower must never see half a report). The
# allocation-regression guards (zero-alloc CSR incidence iteration,
# zero-alloc binary WAL append and
# replication-tail copy, a shipped commit group's frame and the
# follower's per-record apply ceiling in allocations and bytes, a warm
# 500-row write batch's bytes and allocations per row through
# /api/cypher, zero-cost disabled ANALYZE
# instrumentation on the warm expand path, the row-path pins — O(k)
# top-k, per-group grouping, zero per row on a label scan, through a
# WITH bridge (plain or DISTINCT) and in the NDJSON encoder — the
# extraction pass's per-report ceiling, the IOC
# scanner, the zero-alloc warm CRF decoder, and the layout engine's
# zero-alloc warm Step on both kernels plus a 9-node server.Layout's
# ceiling, and the PDF writer's per-line escape) are gated
# //go:build !race — the race detector inflates AllocsPerRun — so a
# plain-build pass runs them. The same pass runs the layout position
# oracle (TestPositionsMatchParent), single-goroutine and ≈12× slower
# under -race, and gated the same way.
# The final pass re-runs the transaction schedule harness (scripted +
# randomized interleavings against the snapshot-isolation oracle), the
# parallel reader stress test and the isolation tests of the UI's walks
# and view endpoints (an open transaction's writes never show) under
# -race with fresh counts, so the MVCC visibility paths get a dedicated
# concurrency shakedown beyond the cached full-suite run, followed by
# the leader/follower
# replication integration pass (replication-test) and a short-profile
# live-ingest soak (soak-test with -short: fewer writers/batches, same
# assertions — divergence, lost writes, 429 discipline, metrics under
# scrape). Last, examples builds and runs the five programs under
# examples/, which drive the public facade end to end.
test: vet
	$(GO) test -race ./...
	$(GO) test -run 'Allocs|PositionsMatchParent' ./internal/graph/ ./internal/storage/ ./internal/replication/ ./internal/cypher/ ./internal/server/ ./internal/ner/ ./internal/ioc/ ./internal/crf/ ./internal/layout/ ./internal/pdf/ ./internal/search/ ./internal/pipeline/
	$(GO) test -race -count=2 -run 'TestSchedule|TestConcurrentReadersSeeAtomicWrites|TestTx' ./internal/cypher/
	$(GO) test -race -count=2 -run 'IgnoreOpenTx' ./internal/graph/ ./internal/server/
	$(MAKE) replication-test
	$(MAKE) soak-test SOAKFLAGS=-short
	$(MAKE) examples

# examples builds and runs every program under examples/ and fails when
# one exits non-zero; their output is discarded. Each builds its own
# synthetic corpus in memory and writes nothing to disk (≈1–3 s each).
examples:
	@set -e; for ex in $(sort $(dir $(wildcard examples/*/main.go))); do \
		echo "$(GO) run ./$$ex"; $(GO) run ./$$ex > /dev/null; \
	done

# replication-test runs the leader/follower integration suite under
# -race with fresh counts: two-node convergence (Save byte-equality
# across snapshot catch-up, live tail, transaction groups), follower
# and leader restarts mid-stream, the snapshot-required/stale path,
# the read-your-writes e2e over real HTTP servers, and the follower
# SIGKILL crash harness (TestFollowerCrashKill re-randomizes its kill
# timing per count).
replication-test:
	$(GO) test -race ./internal/replication/ -count=2 -v -run 'TestReplicate|TestFollower|TestLeader|TestSnapshot|TestTwoNode|TestBootstrap|TestFrame'

# soak-test drives live ingest under load over real HTTP servers: N
# writer clients batch-ingesting via UNWIND (plus a hog writer whose
# oversized batches force genuine backpressure overlap) against a
# leader with a tailing follower, while reader clients stream reads
# from both nodes (read-your-writes via min_seq on the replica) and
# scrapers hit /metrics on both throughout — all under -race. Passes
# only with byte-identical leader/follower stores, zero lost writes,
# at least one exercised-and-retried 429, drained lag and a zeroed
# in-flight gauge. `make test` runs the -short profile; run this
# target directly for the full one.
SOAKFLAGS ?=
soak-test:
	$(GO) test -race ./internal/replication/ ./internal/server/ -count=1 -v $(SOAKFLAGS) -run 'TestSoak|TestIngestBackpressure|TestSweep'

vet:
	$(GO) vet ./...

# loc prints the non-test Go lines of every package — all lines of its
# files not named *_test.go, comments and blank lines included — sorted
# by directory, then the total: the count a change that removes code
# reports before and after.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.git/*' | sort | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); sub("^[.]/?", "", d); n[d == "" ? "." : d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t }'

# plan-shapes diffs the EXPLAIN texts in PLANS against their version at
# REV (a commit, branch or tag) with every est≈ value and the padding
# before it stripped, so a planner change shows the plans whose shape
# moved apart from the ones whose estimates did. Each hunk header names
# the statement above it; no output means no shape moved.
PLANS = internal/cypher/testdata/plans_parent.txt
REV ?= HEAD
plan-shapes:
	@set -e; git rev-parse --verify '$(REV):$(PLANS)' > /dev/null; \
	old=$$(mktemp); new=$$(mktemp); trap 'rm -f "$$old" "$$new"' EXIT; \
	git show '$(REV):$(PLANS)' | sed -E 's/ *est≈[0-9.]+//' > "$$old"; \
	sed -E 's/ *est≈[0-9.]+//' $(PLANS) > "$$new"; \
	diff -U0 -F '^-- ' --label '$(REV)' --label worktree "$$old" "$$new" || true

# bench runs the Cypher engine benchmarks (index on/off,
# variable-length paths, MERGE write path, hash join, bidirectional
# expand) plus the durability
# benchmarks (WAL append throughput, cold-start recovery, and the
# Storage arms: one logged mutation, 20k-record cold-start replay,
# snapshot load, checkpoint), the MVCC contention benchmark
# (ConcurrentReadersDuringWrites: snapshot reads vs an exclusive global
# lock), and the replication benchmarks (follower catch-up records/s
# over the HTTP stream, steady-state lag behind a write burst, and
# ShipGroup: 500-row commit groups leader to follower, with wire bytes
# per record), and the EXPLAIN ANALYZE instrumentation
# overhead arm (analyze-off must stay within noise of the prepared hot
# path; analyze-on prices per-operator profiling), the first plan after
# a stats-version bump on two graph sizes (PlanAfterStatsBump: the arms
# must read alike), and records the raw
# `go test -json` event stream in BENCH_cypher.json so the perf
# trajectory is diffable across PRs. -cpu 2 pins GOMAXPROCS (every
# benchmark name ends in -2): a leader, a follower and their readers
# measured on one processor is a different system.
bench:
	$(GO) test -run '^$$' -bench 'Cypher|WAL|ConcurrentReaders|Replication|Storage' -benchmem -benchtime 50x -cpu 2 . -json | tee BENCH_cypher.json | \
		grep -o '"Output":"Benchmark[^"]*' | sed 's/"Output":"//; s/\\t/\t/g; s/\\n//' || true

# bench-extract runs the front half's benchmarks — the extraction pass
# through its two entry points (NERExtract, RelationExtract), the IOC
# scanner (IOCProtection) and the whole crawl-to-graph path
# (EndToEndIngest, PipelineWorkers) — and records the event stream in
# BENCH_extract.json, as bench does for the engine in BENCH_cypher.json,
# at the same -cpu 2.
bench-extract:
	$(GO) test -run '^$$' -bench 'NERExtract|RelationExtract|IOCProtection|EndToEndIngest|PipelineWorkers' -benchmem -cpu 2 . -json | tee BENCH_extract.json | \
		grep -o '"Output":"Benchmark[^"]*' | sed 's/"Output":"//; s/\\t/\t/g; s/\\n//' || true

# bench-scan runs the heavy-read arms — the ledger's five hunt-scan
# statements over a kg-100k-shaped graph, four through Engine.Query and
# the 20 000-row NDJSON stream through a real HTTP server — and records
# the event stream in BENCH_scan.json. -cpu 2 pins GOMAXPROCS, as in
# bench: the garbage collector and the stream arm's server and client
# run beside the query, so an unpinned run measures the host, and every
# arm also reports the GOMAXPROCS it ran at.
bench-scan:
	$(GO) test -run '^$$' -bench 'CypherScanClasses' -benchmem -benchtime 50x -cpu 2 . -json | tee BENCH_scan.json | \
		grep -o '"Output":"Benchmark[^"]*' | sed 's/"Output":"//; s/\\t/\t/g; s/\\n//' || true

# bench-heap prices keeping the graph in memory: BenchmarkResidentGraph
# builds the bench-scan graph once, reports live-heap B/node and B/edge,
# and leaves the store reachable, so the heap profile written when the
# run ends attributes in-use space to the structures that hold it. The
# test binary and the profile go to the git-ignored .bench_build/. Then
# BenchmarkIndexChurn prices what the compact indexes must not cost: a
# random DeleteNode, or SET of an indexed key, on a 100k-node label.
bench-heap:
	mkdir -p .bench_build
	$(GO) test -run '^$$' -bench 'ResidentGraph' -benchtime 1x -o .bench_build/heap.test -memprofile .bench_build/heap.prof .
	$(GO) tool pprof -sample_index=inuse_space -top -nodecount=15 .bench_build/heap.test .bench_build/heap.prof
	$(GO) test -run '^$$' -bench 'IndexChurn' -benchtime 10000x ./internal/graph

# profile-scan writes a CPU profile of the bench-scan arms (200 runs
# each, -cpu 2) and its test binary to the git-ignored .bench_build/, as
# bench-heap does, then prints the top functions and the callers of
# runtime.duffcopy and runtime.duffzero — the runtime's block copy and
# zeroing, which is where moving 96-byte cypher.Values by value shows.
profile-scan:
	mkdir -p .bench_build
	$(GO) test -run '^$$' -bench 'CypherScanClasses' -benchtime 200x -cpu 2 -o .bench_build/scan.test -cpuprofile .bench_build/scan.prof .
	$(GO) tool pprof -top -nodecount=25 .bench_build/scan.test .bench_build/scan.prof
	$(GO) tool pprof -peek 'runtime.duffcopy$$|runtime.duffzero$$' .bench_build/scan.test .bench_build/scan.prof

# profile-extract writes a CPU profile of BenchmarkNERExtract (10000
# Extract calls on one report, -cpu 2) and its test binary to the
# git-ignored .bench_build/, as profile-scan does, then prints the top
# functions and the CRF decoder's methods with their callers and callees.
# The profile also covers the benchmark's training, so both reports keep
# only the samples under Extract and state shares of Extract alone.
# Decoder.Add near the top means tokens are resolved by feature string
# again instead of by the ids their values resolve to.
EXTRACT_FOCUS = -focus 'ner.\(\*Extractor\).Extract$$' -relative_percentages
profile-extract:
	mkdir -p .bench_build
	$(GO) test -run '^$$' -bench 'NERExtract$$' -benchtime 10000x -cpu 2 -o .bench_build/extract.test -cpuprofile .bench_build/extract.prof .
	$(GO) tool pprof -top -nodecount=25 $(EXTRACT_FOCUS) .bench_build/extract.test .bench_build/extract.prof
	$(GO) tool pprof -peek 'crf.\(\*Decoder\)' $(EXTRACT_FOCUS) .bench_build/extract.test .bench_build/extract.prof

# profile-ingest writes a CPU profile of BenchmarkEndToEndIngest (crawl,
# pipeline and connectors over a fresh synthetic web each run, -cpu 2)
# and its test binary to the git-ignored .bench_build/, as
# profile-extract does, then prints the top functions of the pipeline's
# stage goroutines — pipeline.(*Pipeline).Run and the workers it starts —
# so the crawl and each run's set-up and training drop out and shares are
# of the stages alone — then the callers of htmlparse.Parse and
# textproc.Tokenize: a checker or parser beside pageDoc, or search, among
# them means a page or a document is being parsed or tokenized twice.
INGEST_FOCUS = -focus 'pipeline.\(\*Pipeline\).Run' -relative_percentages
profile-ingest:
	mkdir -p .bench_build
	$(GO) test -run '^$$' -bench 'EndToEndIngest$$' -benchtime 30x -cpu 2 -o .bench_build/ingest.test -cpuprofile .bench_build/ingest.prof .
	$(GO) tool pprof -top -nodecount=30 $(INGEST_FOCUS) .bench_build/ingest.test .bench_build/ingest.prof
	$(GO) tool pprof -peek 'htmlparse.Parse$$|textproc.Tokenize$$' $(INGEST_FOCUS) .bench_build/ingest.test .bench_build/ingest.prof

# bench-ledger runs the performance ledger (bench/README.md): four
# workloads, end-to-end and per-layer metrics, untraced then traced.
bench-ledger:
	$(GO) vet ./bench
	$(GO) run ./bench -seed 1

# crash-test hammers the durability subsystem: a child writer process
# is SIGKILLed at random moments and recovery must reproduce a prefix
# fold of its mutation stream byte-for-byte (TestCrashProcessKill),
# plus the kill-at-every-byte-offset torn-tail property
# (TestTornTailEveryOffset). The Tx variants re-run both with a
# transactional writer: recovery must replay exactly the committed
# groups and discard dangling ones. TestConnectTornTailEveryOffset cuts
# a log the graph connector wrote: recovery must hold whole reports
# only. -count re-randomizes kill timing.
crash-test:
	$(GO) test ./internal/storage ./internal/connector -run 'TestCrashProcessKill|TestTornTailEveryOffset|TestConnectTornTailEveryOffset' -count=3 -v

# cover profiles the query engine, the exploration API server, the
# durability subsystem, replication and the graph store, and fails the
# build when any package's statement coverage drops below its floor
# (listing its functions under 60 %). COVER_FLOORS holds one pkg:floor
# pair per package under internal/. Replication's reads 83.7–84.4 %
# from run to run (which branches the stream's heartbeats reach is
# timing), so its floor is the lowest run's.
COVER_FLOORS ?= cypher:85 server:87 storage:85 replication:83 graph:89
cover:
	@set -e; for pf in $(COVER_FLOORS); do \
		pkg=$${pf%:*}; floor=$${pf#*:}; out=cover_$$pkg.out; \
		echo "$(GO) test -coverprofile=$$out -covermode=atomic ./internal/$$pkg/"; \
		$(GO) test -coverprofile=$$out -covermode=atomic ./internal/$$pkg/; \
		$(GO) tool cover -func=$$out | sort -t: -k2 -n | awk '$$3+0 < 60 {print "  low:", $$0}'; \
		$(GO) tool cover -func=$$out | awk -v p=internal/$$pkg -v floor=$$floor '/^total:/ { \
			t = $$3; sub("%", "", t); \
			if (t+0 < floor+0) { printf "%s coverage %.1f%% is below the %s%% floor\n", p, t, floor; exit 1 } \
			printf "%s coverage %.1f%% (floor %s%%)\n", p, t, floor }'; \
	done

# fuzz exercises the IOC-scanner, HTML-parser, PDF-text, report-parser,
# entity-extractor, Cypher-parser,
# engine, JSON-escaper, request-decoder, WAL-recovery and
# replication-frame fuzz targets for 30s each (the anchored scanner must
# equal the ten-regex sweep; no page may make the HTML parser or its text
# extraction panic, and no document the PDF text extractor; no page body
# may make a report parser panic, nor any text the entity extractor;
# the Cypher parser must never panic; the engine must error, not crash;
# a string must be escaped exactly as encoding/json escapes it; an
# /api/cypher body must decode as json.Unmarshal decodes it, or be
# refused when it refuses it; recovery must survive arbitrary log bytes
# and stay writable, or refuse a header it does not read and leave the
# log as it was; the frame reader must pass on only whole frames of a
# known kind, within its size bound).
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/ioc -fuzz FuzzScan -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/htmlparse -fuzz FuzzParse -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/pdf -fuzz FuzzExtractText -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/pipeline -fuzz FuzzParsers -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/ner -fuzz FuzzExtract -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/cypher -fuzz FuzzParse -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/cypher -fuzz FuzzEngineQuery -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/server -fuzz FuzzJSONString -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/server -fuzz FuzzCypherRequest -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/storage -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/replication -fuzz FuzzFrameReader -fuzztime $(FUZZTIME) -run '^$$'
