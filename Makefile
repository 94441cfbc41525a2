# Build/verify entry points. `make check` is the CI gate: vet, the
# domain-specific sharingvet analyzers, snapshot linting, the line and
# allocation pins, and the full test suite; then the race detector over
# the packages whose concurrency must stay honest under -race — the grm
# protocol layer's reconnect/reaper/federation paths, the store, the
# closure's parallel row kernel (transitive's workers share one step
# meter and a pool of scratch sets; par is their pool), and the planner
# (core's skeleton slots and workspace pool are shared by every allocator
# a share or revoke derives; its leg is -short, as transitive's is).

GO ?= go

.PHONY: build test race lint allocs loc check modeltest scale scenarios figures bench bench-json bench-compare loadgen-json fuzz wire-manifest clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-enabled run of the concurrency-critical packages (LP benches are
# pure-CPU and slow under -race). The closure kernel's tests enumerate
# dense graphs, so its leg is -short: the same kernels on smaller cliques.
race:
	$(GO) test -race ./internal/grm/... ./internal/store/... ./internal/core/... ./internal/planners/... ./internal/batch/... ./internal/sim/... ./internal/metrics/... ./internal/modeltest/... ./internal/vclock/... ./internal/scenario/...
	$(GO) test -race -short ./internal/transitive/ ./internal/par/

# Model-based testing campaign (DESIGN.md §8): random agreement graphs
# checked against brute-force oracles, deterministic GRM cluster
# schedules, and the mutation smoke test proving the properties have
# teeth. Fixed seed, budgeted well under a minute — the CI modeltest job
# runs exactly this; MODELTEST_ITERS scales the sweep for longer runs.
MODELTEST_SEED ?= 1
MODELTEST_ITERS ?= 1000
modeltest:
	$(GO) run ./cmd/sharingcheck -seed $(MODELTEST_SEED) -iters $(MODELTEST_ITERS) \
		-cluster-runs 3 -cluster-steps 200 -mutations -out modeltest-failure.json

# Full-size tree-cluster run (DESIGN.md §7d): 3 GRM levels, 16 leaf
# shards, 10^5 principals, 1000 wire LRMs under the fixed seed, run
# twice to prove the trace is byte-identical at scale. Minutes of wall
# clock — gated behind MODELTEST_SCALE, which this target sets; the CI
# scale job runs exactly this.
scale:
	MODELTEST_SCALE=1 $(GO) test ./internal/modeltest -run TestModelTreeScale \
		-v -timeout 45m -tree-seed $(MODELTEST_SEED)

# Replay the checked-in scenario corpus (SCENARIOS.md): every bundle must
# reproduce its blessed outcomes exactly. A divergence report lands in
# scenario-divergence.txt — the CI scenarios job uploads it as an
# artifact.
scenarios:
	$(GO) run ./cmd/scenario verify -report scenario-divergence.txt ./scenarios/...

# Static analysis: the seven sharingvet analyzers (floateq, errwrap,
# lockedio, netdeadline, plus the call-graph-aware lockorder, waljournal
# and wiretag passes) and the agreement snapshot validator over every
# checked-in snapshot. Invalid example snapshots live under
# testdata/invalid/ and are exercised by tests. The grep keeps the gob
# codec deleted: one wire is served, and a second cannot come back as an
# unreviewed import. The go lists keep the served binaries off the paper's
# library and off the test oracles: nothing grm, grmd or lrmd builds may
# import internal/planners, or internal/modeltest with its reference simplex.
lint:
	$(GO) run ./cmd/sharingvet ./...
	$(GO) run ./cmd/agreements lint testdata/*.json
	! grep -rl '"encoding/gob"' --include='*.go' .
	! $(GO) list -deps ./internal/grm/... ./cmd/grmd ./cmd/lrmd | grep -x 'repro/internal/planners'
	! $(GO) list -deps ./internal/grm/... ./cmd/grmd ./cmd/lrmd | grep -x 'repro/internal/modeltest'

# Regenerate the golden wire manifest after a deliberate protocol change.
# The wiretag analyzer diffs internal/grm/codec.go against this file, so
# tag renumbering or field reordering fails lint until it is re-written
# here — making wire-format changes an explicit, reviewed diff.
wire-manifest:
	$(GO) run ./cmd/sharingvet -write-wire-manifest ./internal/grm

# The federation tests that are shaped by timing (a faultnet-slowed parent
# link, a close racing a queued borrow): check repeats them under -race
# so a flake shows up here and not on someone else's change.
FEDERATION_TIMING_TESTS = ^(TestFederationBorrowSurvivesShrinkingCapacity|TestFederationRepaysBorrowOnFailedRetry|TestCloseRepaysQueuedBorrow)$$

# The allocation pins: the `//go:build !race` tests (named ...Allocs or
# ...AllocatesNothing) that hold what a reserved model build, a steady plan,
# a plan after a value-only write, a refusal for want of capacity, a
# skeleton build, a closure delta, a column patch, an allocate+release pair
# (in process and over the wire, on both sides of the grant box's
# capacity), a lone release, a renew, a reap pass (TestReapAllocs), a
# register, a re-attach, a share, a value-only share+revoke written in
# place (nothing) and one that flips S's pattern, a whole churn cycle, what the shard router adds to each kind it routes, a sparse
# decode into room for it and a pipelined frame through the transport may
# heap-allocate. Run
# alone, uncached and without -race (the detector's instrumentation
# allocates), so a pin that breaks says so by name here and not somewhere
# inside `go test ./...`.
allocs:
	$(GO) test -count=1 -run 'Allocs$$|AllocatesNothing$$' ./internal/lp/ ./internal/transitive/ ./internal/core/ ./internal/grm/ ./internal/grm/transport/ ./internal/wirefmt/

# The line ratchets (ROADMAP item 10): the non-test lines of lp, core and
# grm — what a request runs through — and of the paper's library in
# internal/planners may not grow past the recorded counts. A PR that
# shrinks either lowers its MAX to what it prints; raising one is a
# reviewed diff of its line, for a simplicity PR to argue. Two lines, so
# code cannot leave the serving count by moving into the library unseen.
SERVING_LOC_MAX = 6457
LIBRARY_LOC_MAX = 1049
loc:
	@n=$$(ls internal/lp/*.go internal/core/*.go internal/grm/*.go | grep -v _test | xargs cat | wc -l); \
	l=$$(ls internal/planners/*.go | grep -v _test | xargs cat | wc -l); \
	echo "serving lines (lp+core+grm, non-test): $$n (max $(SERVING_LOC_MAX))"; \
	echo "library lines (planners, non-test): $$l (max $(LIBRARY_LOC_MAX))"; \
	test $$n -le $(SERVING_LOC_MAX) && test $$l -le $(LIBRARY_LOC_MAX)

check: build
	$(GO) vet ./...
	$(MAKE) lint
	$(MAKE) loc
	$(MAKE) allocs
	$(GO) test ./...
	$(GO) test -race ./internal/grm/... ./internal/store/...
	$(GO) test -race -short ./internal/transitive/ ./internal/par/ ./internal/core/
	$(GO) test -race -count=5 -run '$(FEDERATION_TIMING_TESTS)' ./internal/grm/

# Regenerate the paper's figures at full scale (cmd/proxysim, about a
# minute) and compare them byte for byte with the committed
# figures_scale1.txt. A change that moves a figure re-blesses that file in
# the same diff; on a mismatch figures-check.txt is left for diffing.
figures:
	$(GO) run ./cmd/proxysim -scale 1 > figures-check.txt
	cmp figures-check.txt figures_scale1.txt
	rm -f figures-check.txt

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Enforcement hot-path benchmarks (allocation planning, transitive
# closure, the simplex and its modeltest reference, lpsolve's parser, the
# take-vector spelling of the wire and the log) captured into
# BENCH_hotpath.json. The file's "baseline" snapshot is
# frozen on first write; later runs only replace "current", so the tracked
# file records the trajectory against the pre-optimization numbers.
# BENCHTIME=1x gives a smoke run in CI.
BENCHTIME ?= 1s
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) \
		./internal/core/ ./internal/planners/ ./internal/transitive/ ./internal/lp/ ./cmd/lpsolve/ ./internal/wirefmt/ \
		| $(GO) run ./cmd/benchjson -out BENCH_hotpath.json

# Regression gate over the committed bench trajectory: every current
# ns/op in BENCH_hotpath.json must stay within BENCH_TOLERANCE percent
# of its frozen baseline after machine-drift normalization (benchjson
# divides each ratio by the suite-wide median, so a uniformly slower
# recording machine cancels out). This runs on the committed numbers
# (recorded at full benchtime by make bench-json), so CI needs no
# timing fidelity of its own — a regression only lands if someone
# commits a current snapshot where a benchmark got slower relative to
# the rest of the suite.
BENCH_TOLERANCE ?= 50
bench-compare:
	$(GO) run ./cmd/benchjson -compare -threshold $(BENCH_TOLERANCE) BENCH_hotpath.json

# Transport suite: cmd/loadgen drives an in-process GRM through the
# pipelined closed loop under a simulated RTT (mixed, agreement churn,
# sharded plan, a concurrency ramp), plus the message-level codec
# benchmark, and rewrites BENCH_transport.json. LOADGEN_DURATION=500ms
# gives a smoke run in CI.
LOADGEN_DURATION ?= 3s
loadgen-json:
	$(GO) run ./cmd/loadgen -json BENCH_transport.json -duration $(LOADGEN_DURATION)

# Short local fuzz passes over the snapshot, scenario-bundle, take-vector,
# wire envelope and write-ahead-log decoders, and lpsolve's model parser.
fuzz:
	$(GO) test ./internal/agreement/ -fuzz FuzzSnapshotDecode -fuzztime 30s
	$(GO) test ./internal/wirefmt/ -run '^$$' -fuzz FuzzTakes -fuzztime 30s
	$(GO) test ./internal/scenario/ -fuzz FuzzBundleDecode -fuzztime 30s
	$(GO) test ./internal/grm/ -run '^$$' -fuzz FuzzDecodeEnvelope -fuzztime 30s
	$(GO) test ./internal/store/ -run '^$$' -fuzz FuzzLogDecode -fuzztime 30s
	$(GO) test ./cmd/lpsolve/ -run '^$$' -fuzz FuzzParseModel -fuzztime 30s

clean:
	$(GO) clean ./...
