# Build/verify entry points. `make check` is the CI gate: vet, the
# domain-specific sharingvet analyzers, snapshot linting, the line and
# allocation pins, and the full test suite; then the race detector over
# the packages whose concurrency must stay honest under -race — the grm
# protocol layer's reconnect/reaper/federation paths, the store, the
# closure's parallel row kernel (transitive's workers share one step
# meter and a pool of scratch sets; par is their pool), and the planner
# (core's workspace free list is shared by every plan a server runs
# between its in-place writes; its leg is -short, as transitive's is).

GO ?= go

.PHONY: build test race lint nofma allocs loc check modeltest scale scenarios figures bench bench-json bench-compare fuzz wire-manifest clean

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
# unreviewed import. The second grep keeps one write path: the planner is
# written in place (PatchShare, PatchEdge), and the copying SetShare and
# UpdateEdge are left only for the layer benchmark in bench/, so no other
# non-test file may call them. The third keeps one agreement-matrix format:
# NewAllocatorSparse (NewAllocator's old name), NewClosureCSR and the dense
# CapacitiesInto are left only for that benchmark too, so outside their own
# definitions no non-test file may call them. The fourth keeps one closure
# kernel: the walk approximation is gone, and core.Config's Approx field is
# left only as a compile shim for that benchmark, so outside bench/ no
# non-test file may name it (a selector or a composite-literal key) but
# NewAllocator's refusal of it. The fifth keeps one plan shape: every
# planner, the simulator, the ledgers and the oracles take a plan as
# (source, take) pairs, and core's dense Allocation, BatchRequest and
# PlanBatch are left only as compile shims for that benchmark, so outside
# bench/ and internal/core no non-test file may name them. The go lists
# keep the served binaries off the paper's library and off the test
# oracles: nothing grm, grmd or lrmd builds may import internal/planners,
# or internal/modeltest with its reference simplex and dense references. The last two keep one
# log format in the server: nothing grm, store, grmd or lrmd builds may
# import internal/store/legacy, the readers of the logs written before the
# file magic that only cmd/walupgrade runs, and no non-test file of
# internal/store may use encoding/json but DumpJSON's encoder. The last
# keeps one ticket table in the server: the books are a declared base and
# the wire share history, so no non-test file of internal/grm may build an
# agreement.System, hold one in a field, or add principals, resources or
# System-style shares (a currency pair and units: three or more arguments;
# the LRM's own two-argument ShareRelative and ShareAbsolute pass) to one.
# A snapshot is imported through Snapshot.Restore and SparseMatrices alone.
# An argument is a run of anything but commas and parentheses, or one
# parenthesised group, so a call's third argument is found past nested calls.
SYSTEM_SHARE_CALL = \.Share\(Relative\|Absolute\)(\([^(),]\|([^()]*)\)*,\([^(),]\|([^()]*)\)*,
lint:
	$(GO) run ./cmd/sharingvet ./...
	$(GO) run ./cmd/agreements lint testdata/*.json
	! grep -rl '"encoding/gob"' --include='*.go' .
	! grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=bench -e '\.SetShare(' -e '\.UpdateEdge(' .
	! grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=bench -e 'NewAllocatorSparse(' -e 'NewClosureCSR(' -e 'CapacitiesInto(' . | grep -v -e ':func NewAllocatorSparse(' -e ':func NewClosureCSR(' -e ':func CapacitiesInto('
	! grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench -e '\.Approx\b' -e '\bApprox:' . | grep -v -E '^\./internal/core/allocator\.go:[0-9]+:[[:space:]]*(if cfg\.Approx \{|return nil, errors\.New\("core: Config\.Approx is refused)'
	! grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench -e 'core\.(Allocation|BatchRequest)\b' -e '\.PlanBatch\(' . | grep -v '^\./internal/core/'
	! $(GO) list -deps ./internal/grm/... ./cmd/grmd ./cmd/lrmd | grep -x 'repro/internal/planners'
	! $(GO) list -deps ./internal/grm/... ./cmd/grmd ./cmd/lrmd | grep -x 'repro/internal/modeltest'
	! $(GO) list -deps ./internal/grm/... ./internal/store ./cmd/grmd ./cmd/lrmd | grep -x 'repro/internal/store/legacy'
	! grep -n --exclude='*_test.go' -e 'json\.' internal/store/*.go | grep -v -x 'internal/store/filelog.go:[0-9]*:[[:space:]]*enc := json.NewEncoder(w)'
	! grep -n --exclude='*_test.go' -e 'agreement\.NewSystem' -e '\*agreement\.System\b' -e '\.AddPrincipal(' -e '\.AddResource(' -e '$(SYSTEM_SHARE_CALL)' internal/grm/*.go
	$(MAKE) nofma

# Bit-identity off amd64 (ROADMAP item 29): Go may fuse x*y + z into one
# multiply-add on arm64, ppc64le, s390x and riscv64, which rounds once
# where amd64 rounds twice, so the packages whose floats must match amd64
# bit for bit round every product explicitly (float64(x*y)). This leg
# cross-compiles them for those architectures with the assembly listed
# and fails on any fused instruction, naming its file:line; lint ends with
# it, and CI runs it as a step of its own. Go builds the standard library
# for each architecture from its own sources: nothing is downloaded. A
# package joins NOFMA_PKGS in the change that rounds its products.
NOFMA_PKGS = ./internal/transitive
NOFMA_ARCHS = arm64 ppc64le s390x riscv64
nofma:
	@for a in $(NOFMA_ARCHS); do \
		GOARCH=$$a $(GO) build -gcflags=-S $(NOFMA_PKGS) 2>&1 | awk -v arch=$$a -v root='$(CURDIR)/' ' \
			/ STEXT / { listed++ } \
			/\.go:[0-9]+:[0-9]+: / { print; failed = 1 } \
			$$4 ~ /^FN?M(ADD|SUB)[DS]?$$/ { at = $$3; gsub(/[()]/, "", at); sub(root, "", at); print "fused multiply-add on " arch " at " at ": " $$4; failed = 1 } \
			END { if (!listed) print "nofma: " arch ": the build listed no assembly"; exit failed || !listed }' || exit 1; \
		echo "nofma: $$a: no fused multiply-add in $(NOFMA_PKGS)"; \
	done

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
# a requester's first plan, a plan after a value-only write, a plan and an
# allocate+release pair after two collections, a fresh workspace's tableau
# (allocated once), a refusal for want of capacity, a closure delta, a
# column patch, an allocate+release pair
# (in process and over the wire, on both sides of the grant box's
# capacity), a lone release, a renew, a reap pass (TestReapAllocs), a
# register, a register that grows a cached planner in place
# (TestRegisterPlannedAllocs), the live bytes the books keep a principal
# (TestBooksHeapAllocs), a re-attach, a share, a value-only
# share+revoke written in place (nothing) and one that flips S's pattern (nothing
# either, once its first share has moved the row), a whole churn cycle, what the shard router adds to each kind it routes, a sparse
# decode into room for it and a pipelined frame through the transport may
# heap-allocate, and a planner build at 4 096 principals (TestNewAllocatorAllocs)
# may make. Run
# alone, uncached and without -race (the detector's instrumentation
# allocates), so a pin that breaks says so by name here and not somewhere
# inside `go test ./...`.
allocs:
	$(GO) test -count=1 -run 'Allocs$$|AllocatesNothing$$' ./internal/lp/ ./internal/transitive/ ./internal/core/ ./internal/grm/ ./internal/grm/transport/ ./internal/wirefmt/

# The line ratchets (ROADMAP item 10): the non-test lines of lp, core and
# grm — what a request runs through — of the transitive closure they patch,
# of the paper's library in internal/planners, and of the log store and
# the encoding it shares with the wire (internal/store and internal/wirefmt;
# the offline upgrader in internal/store/legacy is not counted) may not grow
# past the recorded counts. A PR that shrinks one lowers its MAX to what it
# prints; raising one is a reviewed diff of its line, for a simplicity PR
# to argue. Four lines, so code cannot leave the serving count by moving
# into the closure, the library or the store unseen. The fifth holds the
# test harness: the running-tree harness and the bundle format in
# internal/scenario plus the model checker and its runners in
# internal/modeltest, so a new op source adds lines to neither a second
# harness nor a copy of one. The sixth holds the tools: the analyzer
# framework and its analyzers in internal/analysis plus the sharingvet
# command (tests and golden testdata not counted), so a new analyzer or a
# second lock walker is a reviewed diff of its line. The seventh holds the
# other commands (cmd/*, sharingvet excepted as the sixth counts it), so a
# deleted tool, or a second load generator, cannot come back as a new
# command without a reviewed diff of its line.
SERVING_LOC_MAX = 6140
TRANSITIVE_LOC_MAX = 1318
LIBRARY_LOC_MAX = 1040
STORE_LOC_MAX = 1611
HARNESS_LOC_MAX = 4699
TOOLS_LOC_MAX = 2859
CMD_LOC_MAX = 1497
loc:
	@n=$$(ls internal/lp/*.go internal/core/*.go internal/grm/*.go | grep -v _test | xargs cat | wc -l); \
	c=$$(ls internal/transitive/*.go | grep -v _test | xargs cat | wc -l); \
	l=$$(ls internal/planners/*.go | grep -v _test | xargs cat | wc -l); \
	s=$$(ls internal/store/*.go internal/wirefmt/*.go | grep -v _test | xargs cat | wc -l); \
	h=$$(ls internal/scenario/*.go internal/modeltest/*.go | grep -v _test | xargs cat | wc -l); \
	a=$$(ls internal/analysis/*.go internal/analysis/*/*.go cmd/sharingvet/*.go | grep -v _test | xargs cat | wc -l); \
	m=$$(ls cmd/*/*.go | grep -v _test | grep -v '^cmd/sharingvet/' | xargs cat | wc -l); \
	echo "serving lines (lp+core+grm, non-test): $$n (max $(SERVING_LOC_MAX))"; \
	echo "closure lines (transitive, non-test): $$c (max $(TRANSITIVE_LOC_MAX))"; \
	echo "library lines (planners, non-test): $$l (max $(LIBRARY_LOC_MAX))"; \
	echo "store lines (store+wirefmt, non-test): $$s (max $(STORE_LOC_MAX))"; \
	echo "harness lines (scenario+modeltest, non-test): $$h (max $(HARNESS_LOC_MAX))"; \
	echo "tools lines (analysis+sharingvet, non-test): $$a (max $(TOOLS_LOC_MAX))"; \
	echo "command lines (cmd except sharingvet, non-test): $$m (max $(CMD_LOC_MAX))"; \
	test $$n -le $(SERVING_LOC_MAX) && test $$c -le $(TRANSITIVE_LOC_MAX) && test $$l -le $(LIBRARY_LOC_MAX) && test $$s -le $(STORE_LOC_MAX) && test $$h -le $(HARNESS_LOC_MAX) && test $$a -le $(TOOLS_LOC_MAX) && test $$m -le $(CMD_LOC_MAX)

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
# closure, the simplex and its modeltest reference, the take-vector
# spelling of the wire and the log) captured into
# BENCH_hotpath.json. The file's "baseline" snapshot is
# frozen on first write; later runs only replace "current", so the tracked
# file records the trajectory against the pre-optimization numbers.
# BENCHTIME=1x gives a smoke run in CI.
BENCHTIME ?= 1s
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) \
		./internal/core/ ./internal/planners/ ./internal/transitive/ ./internal/lp/ ./internal/wirefmt/ \
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

# Short local fuzz passes over the snapshot, scenario-bundle, take-vector,
# frame, wire envelope and write-ahead-log decoders, and the upgrader of
# the logs written before the file magic. Every FuzzUpgrade input writes
# and fsyncs a log directory, so its minimization of each new input is
# cut to 3 s; the default 60 s would take the whole pass.
fuzz:
	$(GO) test ./internal/agreement/ -fuzz FuzzSnapshotDecode -fuzztime 30s
	$(GO) test ./internal/wirefmt/ -run '^$$' -fuzz FuzzTakes -fuzztime 30s
	$(GO) test ./internal/wirefmt/ -run '^$$' -fuzz FuzzFrame -fuzztime 30s
	$(GO) test ./internal/scenario/ -fuzz FuzzBundleDecode -fuzztime 30s
	$(GO) test ./internal/grm/ -run '^$$' -fuzz FuzzDecodeEnvelope -fuzztime 30s
	$(GO) test ./internal/store/ -run '^$$' -fuzz FuzzLogDecode -fuzztime 30s
	$(GO) test ./internal/store/legacy/ -run '^$$' -fuzz FuzzUpgrade -fuzztime 30s -fuzzminimizetime 3s

clean:
	$(GO) clean ./...
