# Developer entry points. The repo is stdlib-only Go; no generated code.

GO ?= go

.PHONY: tier1 test vet build bench-parallel report chaos trace lint bench-obs cover fuzz bench-serve bench-predict crash replicate-chaos replicate-report catalog-transfer loadgen loadgen-report rollout-chaos

# tier1 is the required pre-merge gate: vet, build, and the full test suite
# under the race detector (the parallel evaluation engine's determinism
# tests exercise the worker pool at several worker counts).
# The root-package experiment smoke test runs all 21 experiments; under the
# race detector on a small machine that exceeds go test's default 10m
# per-package budget, hence the explicit timeout.
tier1: vet build
	$(GO) test -race -timeout 45m ./...

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench-parallel reruns the worker-sweep benchmarks recorded in
# results/parallel.md.
bench-parallel:
	$(GO) test ./internal/kmeans -run xxx -bench BenchmarkFit -benchtime 3x
	$(GO) test ./internal/core -run xxx -bench 'BenchmarkTrainOffline|BenchmarkPredictBatch' -benchtime 2x
	$(GO) test ./internal/bench -run xxx -bench BenchmarkFig3 -benchtime 1x

# report regenerates the committed seed-1 experiment reports.
report:
	$(GO) run ./cmd/vestabench -parallel 4 -md results/seed1.md

# trace demonstrates the observability layer (DESIGN.md §9): it runs the
# offline + online pipeline with tracing on at two worker counts and proves
# the serialized records are byte-identical before printing a summary. Its
# files live in a private temporary directory removed on exit, so concurrent
# checkouts never share them.
trace:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; set -x; \
	$(GO) run ./cmd/vesta profile -out "$$dir/k.json" -trace "$$dir/w1.jsonl" -workers 1; \
	$(GO) run ./cmd/vesta profile -out "$$dir/k.json" -trace "$$dir/w8.jsonl" -workers 8; \
	cmp "$$dir/w1.jsonl" "$$dir/w8.jsonl"; \
	$(GO) run ./cmd/vesta predict -knowledge "$$dir/k.json" -app Spark-lr -trace "$$dir/predict.jsonl" -v
	@echo "trace records are byte-identical at -workers 1 and 8"

# lint runs gofmt plus staticcheck when it is installed (CI pins its own
# copy; locally it is optional — nothing is downloaded here).
lint:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then echo "gofmt needed:"; echo "$$fmtout"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "staticcheck not installed; skipping"; fi

# bench-obs reruns the tracing-overhead benchmarks recorded in
# results/obs.md (disabled tracing must cost <5% on the training and
# prediction hot paths).
bench-obs:
	$(GO) test ./internal/obs -run xxx -bench . -benchtime 100000x
	$(GO) test ./internal/cmf -run xxx -bench BenchmarkSolve -benchtime 20x
	$(GO) test ./internal/core -run xxx -bench 'BenchmarkTrainOffline|BenchmarkPredictBatch' -benchtime 2x

# chaos regenerates the committed fault-injection robustness sweep at the
# pinned seed and fails if the curve drifts from results/robustness.md.
# Deliberately outside the tier-1 budget (six full retrainings under fault
# injection); run it when touching chaos/, the resilient meter, or the
# degradation paths in core.
chaos:
	$(GO) run ./cmd/vestabench -exp ext-robustness -seed 1 -md results/robustness.md
	git diff --exit-code results/robustness.md

# cover enforces the coverage ratchet: total statement coverage must not
# fall below COVER_MIN (set slightly under the measured total — 76.8% when
# the floor was last ratcheted; raise it as coverage grows, never lower it).
# On failure (and success) it prints the per-package table so the package
# that dragged the total down is visible without rerunning anything.
COVER_MIN ?= 76.0
cover:
	$(GO) test -coverprofile=coverage.out -timeout 30m ./...
	@echo "statement coverage by package:"; \
	awk 'NR>1 { pkg=$$1; sub(/\/[^\/]*\.go:.*/,"",pkg); stmts[pkg]+=$$2; if ($$3>0) cov[pkg]+=$$2 } \
	  END { for (k in stmts) printf "  %-36s %5.1f%%\n", k, 100*cov[k]/stmts[k] }' coverage.out | sort; \
	total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub("%","",$$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t+0 < min+0) ? 1 : 0 }' || \
	{ echo "coverage $$total% fell below the $(COVER_MIN)% ratchet"; exit 1; }

# fuzz runs every fuzz target for a short fixed budget (regression replay
# plus a little exploration). Go allows one -fuzz pattern per invocation,
# hence one line per target.
FUZZTIME ?= 20s
fuzz:
	$(GO) test ./internal/serve -run xxx -fuzz FuzzServeRequest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/store -run xxx -fuzz FuzzStoreRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/store -run xxx -fuzz FuzzTraceCSV -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bipartite -run xxx -fuzz FuzzGraphJSON -fuzztime $(FUZZTIME)
	$(GO) test ./internal/loadgen -run xxx -fuzz FuzzLoadgenConfig -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rollout -run xxx -fuzz FuzzRolloutManifest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run xxx -fuzz FuzzDecodeSnapshot -fuzztime $(FUZZTIME)
	$(GO) test ./internal/metrics -run xxx -fuzz FuzzCorrelationsOf -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rng -run xxx -fuzz FuzzSkip -fuzztime $(FUZZTIME)

# loadgen is the load-generator determinism smoke (DESIGN.md §15): a quick
# single run and tuner sweep exercise the CLI modes, then the full
# capacity-planning report is rendered twice at the same seed — once serial,
# once fanned out on 8 evaluation workers — and the bytes must match. The
# renders live in a private temporary directory removed on exit, so
# concurrent checkouts never share them.
loadgen:
	$(GO) run ./cmd/vesta loadgen -rps 200 -duration 5 -pattern burst -tenants 100
	$(GO) run ./cmd/vesta loadgen -tune -rps 1000 -duration 10 -tenants 100 -target-p99 50 -plan 1000,100000
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; set -x; \
	$(GO) run ./cmd/vesta loadgen -report -workers 1 -o "$$dir/w1.md"; \
	$(GO) run ./cmd/vesta loadgen -report -workers 8 -o "$$dir/w8.md"; \
	cmp "$$dir/w1.md" "$$dir/w8.md"
	@echo "loadgen report is byte-identical at -workers 1 and 8"

# loadgen-report regenerates the committed capacity-planning report at the
# pinned seed and fails if it drifts from results/loadgen.md.
loadgen-report:
	$(GO) run ./cmd/vesta loadgen -report -o results/loadgen.md
	git diff --exit-code results/loadgen.md

# bench-serve reruns the serving-throughput sweep recorded in
# results/serve.md (requests/sec vs worker count, cache on and off, the
# uncached-arm ladder: legacy / fold-in / fold-in+memo, and the serial
# all-apps cold mix of perf's cold workload).
bench-serve:
	$(GO) test ./internal/serve -run xxx -bench 'BenchmarkServe|BenchmarkPredictNoCache|BenchmarkPredictColdMix' -benchtime 200x

# bench-predict is the uncached-predict regression gate (DESIGN.md §12): a
# benchstat-style before/after comparison of the legacy arm (a per-request
# cold CMF solve with no memoization, rebuilt as a test-local reference)
# against the default serving arm (plan fold-in + memoization), in one
# binary, failing when the fast path falls under the 1.8x floor.
bench-predict:
	VESTA_BENCH_PREDICT=1 $(GO) test ./internal/serve -run TestPredictHotPathGate -v -timeout 20m

# crash runs the durability crash-point matrix (DESIGN.md §11): every
# byte-prefix truncation of a multi-record WAL, every injected fsync/rename
# failure and power-cut offset inside checkpoint compaction, the recovery
# edge cases, and the kill-and-restart serve round trip. Included in tier1
# via the normal test run; this target isolates it for fast iteration on
# the durable-state layer.
crash:
	$(GO) test -race ./internal/chaos -run 'TestFaultFS|TestOSFS'
	$(GO) test -race ./internal/wal
	$(GO) test -race ./internal/serve -run 'TestAbsorb|TestRecoveredServer'
	$(GO) test -race ./internal/cli -run TestServeDurableRoundTrip

# replicate-chaos runs the replication convergence matrix (DESIGN.md §13):
# every partition/lag/leader-kill schedule against three followers at
# workers 1/4/16, the WAL compaction/append races with mid-compaction crash
# points, the router's no-stale-read and failover tests, and the CLI
# leader→follower fleet round trip. Included in tier1 via the normal test
# run; this target isolates it for fast iteration on the replication layer.
replicate-chaos:
	$(GO) test -race ./internal/chaos -run 'TestNetPlan|TestPartitioned|TestLagged|TestLeaderAlive'
	$(GO) test -race -timeout 20m ./internal/replicate
	$(GO) test -race ./internal/wal -run 'TestCompactionRaces|TestCrashMidCompaction'
	$(GO) test -race ./internal/cli -run 'TestRoute|TestServeLeaderFollowerRoundTrip|TestServeReplicationFlagConflicts'

# replicate-report regenerates the failover-latency and follower-lag numbers
# in results/replicate.md (wall-clock medians; outside the determinism
# contract, so gated behind an env var rather than run in tier1).
replicate-report:
	VESTA_REPLICATE_REPORT=1 $(GO) test ./internal/replicate -run TestReplicateReport -v -timeout 20m

# rollout-chaos runs the health-gated rollout convergence matrix
# (DESIGN.md §16): every chaos plan (stage faults, health flaps, golden
# replay regressions at canary/partial/full) against a 3-follower fleet,
# the coordinator crash-resume sweep at every journaled decision point, the
# HTTP control-plane round trip, the long-poll edge cases (wait expiry,
# client disconnect, server-side cap, parked-stats responsiveness), and the
# CLI rollout command. Included in tier1 via the normal test run; this
# target isolates it for fast iteration on the rollout layer.
rollout-chaos:
	$(GO) test -race ./internal/chaos -run TestRolloutPlan
	$(GO) test -race -timeout 20m ./internal/rollout
	$(GO) test -race ./internal/wal -run 'TestJournal|TestManagerInstall'
	$(GO) test -race ./internal/serve -run 'TestStage|TestRollout'
	$(GO) test -race ./internal/replicate -run 'TestFetchWait|TestFollowerRunWait|TestFollowerPauses|TestLeaderInstall|TestStatsResponsive'
	$(GO) test -race ./internal/cli -run TestRolloutCommand

# catalog-transfer regenerates the committed cross-provider transfer
# experiment (EC2-trained knowledge ranking the Azure/GCP catalogs absorbed
# as versioned updates, vs native per-provider training) at the pinned seed
# and fails if the table drifts from results/catalog.md, then isolates the
# versioned-catalog test surface: catalog invariants across providers and
# update sequences, the catalog WAL record through crash recovery, and the
# catalog-version consistency token through serving and replication.
catalog-transfer:
	$(GO) run ./cmd/vestabench -exp ext-provider-transfer -seed 1 -md results/catalog.md
	git diff --exit-code results/catalog.md
	$(GO) test -race ./internal/cloud
	$(GO) test -race ./internal/wal -run 'TestCatalog|TestRecover'
	$(GO) test -race ./internal/serve -run 'TestCatalog|TestAbsorb'
	$(GO) test -race ./internal/replicate -run 'TestCatalog|TestFollower'
