GO ?= go

.PHONY: verify build vet repobench-vet repobench-test fmt test test-fast bench bench-allocs bench-read bench-json bench-serving bench-serving-fleet fleet load-smoke race-tree golden fuzz-smoke serve join-scenarios staticcheck mctsvet lint govulncheck

# verify is the tier-1 gate: build, formatting, static analysis (go vet +
# the custom mctsvet suite, plus go vet over the nested repobench module),
# the full test suite, and the repobench module's own tests. Everything in
# verify works offline; lint adds the network-fetched checkers on top.
verify: build fmt mctsvet repobench-vet test repobench-test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# repobench-vet builds and vets the benchmark module under repobench/. It
# has its own go.mod, so `./...` from the root never compiles it; this is
# what catches a change that removes an API the benchmark calls.
repobench-vet:
	cd repobench && $(GO) vet ./...

# repobench-test runs the benchmark module's tests (about 20 s), which
# `go test ./...` from the root never reaches either.
repobench-test:
	cd repobench && $(GO) test ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# test is tier-1 parity with `go test ./...`, including the ~30s serving
# soak; use test-fast while iterating.
test:
	$(GO) test ./...

# test-fast skips the 30s eviction-determinism soak (CI runs it in its own
# dedicated step).
test-fast:
	$(GO) test -skip TestSoakEvictionDeterminism ./...

# bench runs the root package's benchmark suite once.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# bench-allocs measures allocations on the search hot path: one sequential
# MCTS Generate over the SDSS log in each cache mode (uncached / cold /
# warm), with allocs/op and B/op from -benchmem. CI runs the same command
# and archives the output next to BENCH_search.json's allocs_per_iter
# section.
bench-allocs:
	$(GO) test -run '^$$' -bench 'BenchmarkGenerate$$' -benchmem .

# bench-read times the two session reads through the serving stack: an
# interact get and a JSON export of an SDSS interface, sent through a router
# to two replicas on loopback (BenchmarkFleetReads), with ns/op and
# allocs/op. CI runs it in the bench job next to BenchmarkGenerate.
bench-read:
	$(GO) test -run '^$$' -bench 'BenchmarkFleetReads' -benchmem ./internal/router

# bench-json regenerates BENCH_search.json: iterations/sec with the
# transposition cache cold, warm, and disabled — one section per workload
# (sdss and sdss-join) — plus the cache hit rate, best cost,
# allocations-per-iteration for every mode, each workload's snapshot
# section (restart-from-snapshot: warm cache exported through the codec and
# imported into a fresh cache before searching), and the first workload's
# tree_parallel section (4 workers on one tree vs sequential, both cold).
# Fails if any workload's warm-cache speedup drops below 3x, if a cold
# first search is slower than uncached (speedup_cold < 1.0, cold with a
# fresh cache per run), if a warm
# run allocates more than 300k/iteration, if restart-from-snapshot misses
# 3x over cold, changes a result or misses the restored cache even once
# (the deterministic check that the snapshot carries every aspect), if
# caching changes a result, or — on
# machines with >= 4 CPUs — if tree-parallel misses 2x iters/sec or
# worsens the best cost. The warm, cold and restart ratios are each the
# median over 10 interleaved pairs (warm/uncached, cold/uncached,
# restored/cold); the per-pair win counts are printed. Pass
# COMPARE=old.json to print per-metric deltas (including allocs/iter)
# before the gates.
bench-json:
	$(GO) run ./cmd/searchbench -out BENCH_search.json -max-allocs-per-iter 300000 $(if $(COMPARE),-compare $(COMPARE))

# bench-serving regenerates BENCH_serving.json: the open-loop load harness
# (cmd/mctsload) drives an in-process daemon with the built-in two-class
# smoke spec and reports per-class p50/p95/p99 latency, throughput, goodput,
# 429/503 rates, SSE time-to-first-event, and the daemon's cache/admission
# curves. Gates (p99 budget, goodput floor) are recorded always but enforced
# only on machines with >= 4 CPUs. Pass COMPARE=old.json for per-metric
# deltas before the gates.
bench-serving:
	$(GO) run ./cmd/mctsload -out BENCH_serving.json $(if $(COMPARE),-compare $(COMPARE))

# bench-serving-fleet is the fleet variant of bench-serving: the same
# open-loop smoke spec driven through an in-process mctsrouter over two
# in-process replicas (affinity placement), so the router hop sits inside the
# measured p99/goodput budgets. Same gates and >= 4 CPU enforcement guard.
bench-serving-fleet:
	$(GO) run ./cmd/mctsload -fleet 2 -out BENCH_serving_fleet.json $(if $(COMPARE),-compare $(COMPARE))

# fleet mirrors the CI fleet gate: the multi-replica router suite (ring
# stability under churn, placement unit tests, session affinity over live
# daemons, kill-a-replica failover, drain + warm-handoff byte-identity)
# plus the daemon-side liveness/readiness split, race-enabled.
fleet:
	$(GO) test -race -count=1 ./internal/router
	$(GO) test -race -count=1 -run 'TestReadinessGate|TestDrainReturnsBestSoFar' ./internal/server

# load-smoke is the quick serving sanity check: a short low-rate run with
# gates disabled — proves the daemon serves multi-class open-loop traffic
# end to end without judging performance.
load-smoke:
	$(GO) run ./cmd/mctsload -out - -duration-ms 3000 -warmup-ms 1000 \
		-rate-scale 0.5 -max-p99-ms 0 -min-goodput 0

# race-tree runs the tree-parallel race suite CI gates on: every test of
# internal/mcts (each search runs the shared-tree code, whatever its worker
# count), the TreeWorkers tests of core and the root package, core's
# concurrent Generate calls on one shared cache, the shared-engine rollout
# test of internal/eval (tree workers share the
# engine's rollout step and its pooled spine arenas), and its move-code
# tests (engines on one cache intern into its path table at once, and
# fill and rotate a small one).
race-tree:
	$(GO) test -race -count=2 ./internal/mcts
	$(GO) test -race -count=2 -run 'TreeParallel|TreeWorkers|VirtualLoss|ConcurrentGenerate' ./internal/core .
	$(GO) test -race -count=2 -run 'TestRandomMoveSharedEngine|TestMoveCodesConcurrentEngines|TestCodeTablesConcurrentIntern' ./internal/eval

# golden regenerates the end-to-end fixtures under testdata/golden/ (run it
# after an intentional change to search or cost semantics, then review the
# diff like any other code change).
golden:
	$(GO) test -run TestGoldenFixtures . -args -update-golden

# fuzz-smoke runs each fuzz target briefly (CI runs the same); longer local
# campaigns: go test ./internal/sqlparser -fuzz FuzzParseRenderRoundTrip
fuzz-smoke:
	$(GO) test ./internal/sqlparser -run '^$$' -fuzz FuzzParseRenderRoundTrip -fuzztime 10s
	$(GO) test ./internal/sqlparser -run '^$$' -fuzz FuzzParseRenderMultiTable -fuzztime 10s
	$(GO) test ./internal/codec -run '^$$' -fuzz FuzzUnmarshal -fuzztime 10s
	$(GO) test ./internal/eval -run '^$$' -fuzz FuzzLoadSnapshot -fuzztime 10s
	$(GO) test ./internal/eval -run '^$$' -fuzz FuzzIncrementalLegality -fuzztime 10s
	$(GO) test ./internal/eval -run '^$$' -fuzz FuzzMatchMemo -fuzztime 10s
	$(GO) test ./internal/rules -run '^$$' -fuzz FuzzWideningRules -fuzztime 10s
	$(GO) test ./internal/rules -run '^$$' -fuzz FuzzRuleRewrite -fuzztime 10s
	$(GO) test ./internal/difftree -run '^$$' -fuzz FuzzNthOfKind -fuzztime 10s

# join-scenarios mirrors the CI acceptance step for the multi-table grammar:
# end-to-end join/union/subquery generation, golden fixtures, and a
# searchbench run on the sdss-join workload.
join-scenarios:
	$(GO) test -race -count=1 -run 'TestJoinScenario|TestGoldenFixtures' .
	$(GO) test -count=1 -run 'Join|MultiTable|Union|Subquery|Structural' \
		./internal/sqlparser ./internal/engine ./internal/rules ./internal/cost ./internal/workload ./internal/core
	$(GO) run ./cmd/searchbench -out /tmp/bench-join.json -workload sdss-join -tree-workers 0 -min-speedup 0

# mctsvet runs the standard `go vet` passes plus the repo's custom
# determinism/concurrency analyzers (detmap, wallclock, slicealias,
# cachewrite, directive) — see README "Static analysis". Offline-capable:
# it is part of verify, which subsumes the plain vet target.
mctsvet:
	$(GO) run ./cmd/mctsvet ./...

# lint is the full static-analysis gate: mctsvet plus the network-fetched
# checkers CI pins (staticcheck, govulncheck).
lint: mctsvet staticcheck govulncheck

# staticcheck runs the pinned version CI uses (installs on demand).
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@2025.1.1 ./...

# govulncheck scans the module and its call graph against the Go
# vulnerability database (pinned; installs on demand).
govulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@v1.1.4 ./...

# serve runs the long-lived daemon locally (see README "Serving").
serve:
	$(GO) run ./cmd/mctsuid
