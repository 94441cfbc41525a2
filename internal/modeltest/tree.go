package modeltest

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net"
	"strings"

	"repro/internal/core"
	"repro/internal/grm"
	"repro/internal/store"
)

// TreeOptions configures one deterministic tree-cluster run: a root GRM,
// a layer of mid-level GRMs federated under it, and sharded leaf
// clusters federated under the mids — three GRM levels end to end. Leaf
// principals arrive two ways: a bulk population registered in-process
// through the shard router (so the run scales to 10^5 principals without
// 10^5 sockets) and a fleet of real LRM clients on the wire. A seeded
// schedule then mixes reports, allocations that borrow up the tree,
// releases that repay down it, upstream reports, and whole-leaf-cluster
// restarts recovering from the per-shard write-ahead logs.
type TreeOptions struct {
	// Seed drives everything random: capacities, the agreement blocks,
	// and the operation schedule.
	Seed int64
	// Steps is how many schedule operations to execute.
	Steps int
	// Mids is the number of mid-level GRMs under the root.
	Mids int
	// LeavesPerMid is the number of sharded leaf clusters under each mid.
	LeavesPerMid int
	// ShardsPerLeaf is the shard count of each leaf cluster.
	ShardsPerLeaf int
	// Principals is the total leaf-level principal population, the LRM
	// fleet included; the remainder is bulk-registered in-process.
	Principals int
	// LRMs is how many real wire clients dial the leaf clusters.
	LRMs int
}

func (o *TreeOptions) defaults() {
	if o.Steps <= 0 {
		o.Steps = 50
	}
	if o.Mids <= 0 {
		o.Mids = 2
	}
	if o.LeavesPerMid <= 0 {
		o.LeavesPerMid = 1
	}
	if o.ShardsPerLeaf <= 0 {
		o.ShardsPerLeaf = 2
	}
	if o.Principals <= 0 {
		o.Principals = 300
	}
	if o.LRMs <= 0 {
		o.LRMs = 12
	}
	if o.LRMs > o.Principals {
		o.LRMs = o.Principals
	}
}

// TreeFailure pinpoints an invariant violation in a tree run.
type TreeFailure struct {
	Seed int64  `json:"seed"`
	Step int    `json:"step"`
	Op   string `json:"op"`
	Msg  string `json:"msg"`
}

// Error formats the failure with its replay seed.
func (f *TreeFailure) Error() string {
	return fmt.Sprintf("modeltest: tree step %d (%s) violated an invariant (replay: -tree-seed %d): %s",
		f.Step, f.Op, f.Seed, f.Msg)
}

// TreeReport is the outcome of RunTree.
type TreeReport struct {
	// Steps is how many operations ran (the failing one included).
	Steps int
	// Levels is the GRM tree depth (root, mids, leaves).
	Levels int
	// Principals is the realized leaf-level principal count.
	Principals int
	// LRMs is the realized wire-client count.
	LRMs int
	// Restarts counts the leaf-cluster restarts the schedule performed.
	Restarts int
	// Borrowed reports the leaves' outstanding federation borrow total at
	// the end of the run.
	Borrowed float64
	// Trace records one line per operation: the op, its outcome, and an
	// FNV-1a digest of every level's books afterwards. Two runs with the
	// same options must produce byte-identical traces.
	Trace []string
	// Failure is the first invariant violation, nil when the run is clean.
	Failure *TreeFailure
}

// treeLeaf is one sharded leaf cluster and its durable medium.
type treeLeaf struct {
	name    string
	midAddr string
	cluster *grm.Sharded
	logs    []store.Log
	addr    string
	// prefixes[s] is a subtree prefix the router maps to shard s, so the
	// harness can place principals and keep agreements intra-shard.
	prefixes []string
	// bulk holds the in-process principals' global ids, grouped by shard
	// prefix so agreement blocks stay on one shard.
	bulk [][]int
}

// treeLRM is one wire client of a leaf cluster.
type treeLRM struct {
	lrm      *grm.LRM
	leaf     int
	capacity float64
}

// treeLease is one outstanding allocation made by the LRM fleet.
type treeLease struct {
	leaf  int
	lrm   int
	token int
}

// treeConfig is the allocator configuration every server in the tree
// runs: ComponentLP keeps each plan's LP restricted to the requester's
// agreement component, which is what makes allocation tractable at the
// scale test's 10^5 principals per run (the full substituted LP carries
// all n+1 variables and solves in seconds per request at that size).
var treeConfig = core.Config{ComponentLP: true}

// RunTree executes one seeded tree-cluster schedule and checks the
// cross-level invariants after every operation: availability stays
// non-negative everywhere, allocation takes add up, lease tokens are
// never reused, and a restarted leaf cluster recovers its books
// bit-identically from its per-shard logs before serving again.
func RunTree(opts TreeOptions) (*TreeReport, error) {
	opts.defaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	rep := &TreeReport{Levels: 3}

	// Root level. No lease TTL anywhere: the tree run keeps every server's
	// background reaper off, so the only transitions are the schedule's.
	root := grm.NewServer(treeConfig, nil)
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("modeltest: tree root listen: %w", err)
	}
	go root.Serve(rl)
	defer root.Close()

	// Mid level, each mid an LRM of the root.
	mids := make([]*grm.Server, opts.Mids)
	midAddrs := make([]string, opts.Mids)
	for m := range mids {
		mid := grm.NewServer(treeConfig, nil)
		ml, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("modeltest: tree mid %d listen: %w", m, err)
		}
		go mid.Serve(ml)
		defer mid.Close()
		if err := mid.AttachParent(rl.Addr().String(), fmt.Sprintf("mid%d", m)); err != nil {
			return nil, fmt.Errorf("modeltest: tree mid %d attach: %w", m, err)
		}
		mids[m] = mid
		midAddrs[m] = ml.Addr().String()
	}

	// Leaf level: sharded clusters, each an LRM of its mid, each shard
	// journaling into its own write-ahead log.
	newCluster := func(lf *treeLeaf, recover bool) error {
		c := grm.NewSharded(opts.ShardsPerLeaf, treeConfig, nil)
		if recover {
			if err := c.RecoverShards(lf.logs); err != nil {
				return fmt.Errorf("recover %s: %w", lf.name, err)
			}
		} else if err := c.SetLogs(lf.logs); err != nil {
			return err
		}
		lf.cluster = c
		return nil
	}
	startCluster := func(lf *treeLeaf) error {
		var l net.Listener
		var err error
		if lf.addr == "" {
			l, err = net.Listen("tcp", "127.0.0.1:0")
		} else {
			// A restart reclaims the cluster's old address so the LRM
			// fleet's transparent reconnects find it.
			l, err = net.Listen("tcp", lf.addr)
		}
		if err != nil {
			return fmt.Errorf("listen %s: %w", lf.name, err)
		}
		lf.addr = l.Addr().String()
		go lf.cluster.Serve(l)
		if err := lf.cluster.AttachParent(lf.midAddr, lf.name); err != nil {
			return fmt.Errorf("attach %s: %w", lf.name, err)
		}
		return nil
	}
	nleaves := opts.Mids * opts.LeavesPerMid
	leaves := make([]*treeLeaf, nleaves)
	for i := range leaves {
		mid := i / opts.LeavesPerMid
		lf := &treeLeaf{
			name:    fmt.Sprintf("leaf%d", i),
			midAddr: midAddrs[mid],
			logs:    make([]store.Log, opts.ShardsPerLeaf),
		}
		for s := range lf.logs {
			lf.logs[s] = store.NewMemLog()
		}
		if err := newCluster(lf, false); err != nil {
			return nil, fmt.Errorf("modeltest: tree: %w", err)
		}
		defer func() { lf.cluster.Close() }()
		// Probe subtree prefixes until every shard has one.
		lf.prefixes = make([]string, opts.ShardsPerLeaf)
		lf.bulk = make([][]int, opts.ShardsPerLeaf)
		for found, p := 0, 0; found < opts.ShardsPerLeaf; p++ {
			if p > 100_000 {
				return nil, fmt.Errorf("modeltest: tree: no prefix for every shard of %s", lf.name)
			}
			name := fmt.Sprintf("b%d", p)
			if s := lf.cluster.ShardOf(name + "/probe"); lf.prefixes[s] == "" {
				lf.prefixes[s] = name
				found++
			}
		}
		if err := startCluster(lf); err != nil {
			return nil, fmt.Errorf("modeltest: tree: %w", err)
		}
		leaves[i] = lf
	}

	// Bulk population, registered in-process through each router. The
	// shard prefix rotates per principal so every shard fills evenly.
	nbulk := opts.Principals - opts.LRMs
	for k := 0; k < nbulk; k++ {
		lf := leaves[k%nleaves]
		shard := (k / nleaves) % opts.ShardsPerLeaf
		name := fmt.Sprintf("%s/p%d", lf.prefixes[shard], k)
		resp := lf.cluster.Handle(&grm.Request{Register: &grm.RegisterRequest{
			Name:     name,
			Capacity: 1 + grid(rng.Float64()*9),
		}})
		if resp.Err != "" {
			return nil, fmt.Errorf("modeltest: tree register %s: %s", name, resp.Err)
		}
		lf.bulk[shard] = append(lf.bulk[shard], resp.Register.Principal)
		rep.Principals++
	}
	// Agreement blocks: consecutive same-shard principals form blocks of
	// up to eight, chained by relative agreements with an absolute edge
	// closing each block — sparse rows, small closure components, and
	// every edge intra-shard by construction.
	const blockSize = 8
	for _, lf := range leaves {
		for _, ids := range lf.bulk {
			for start := 0; start < len(ids); start += blockSize {
				end := start + blockSize
				if end > len(ids) {
					end = len(ids)
				}
				for j := start; j+1 < end; j++ {
					resp := lf.cluster.Handle(&grm.Request{Share: &grm.ShareRequest{
						From: ids[j], To: ids[j+1], Fraction: grid(0.1 + rng.Float64()*0.3),
					}})
					if resp.Err != "" {
						return nil, fmt.Errorf("modeltest: tree share: %s", resp.Err)
					}
				}
				if end-start >= 2 {
					resp := lf.cluster.Handle(&grm.Request{Share: &grm.ShareRequest{
						From: ids[end-1], To: ids[start], Quantity: grid(1 + rng.Float64()*3),
					}})
					if resp.Err != "" {
						return nil, fmt.Errorf("modeltest: tree share: %s", resp.Err)
					}
				}
			}
		}
	}

	// The LRM fleet, spread round-robin over leaves and shard prefixes.
	lrms := make([]*treeLRM, opts.LRMs)
	cfg := grm.DefaultDialConfig()
	for i := range lrms {
		leaf := i % nleaves
		lf := leaves[leaf]
		prefix := lf.prefixes[(i/nleaves)%opts.ShardsPerLeaf]
		capacity := 1 + grid(rng.Float64()*9)
		lrm, err := grm.DialWithConfig(lf.addr, fmt.Sprintf("%s/lrm%d", prefix, i), capacity, cfg)
		if err != nil {
			return nil, fmt.Errorf("modeltest: tree dial lrm%d: %w", i, err)
		}
		defer lrm.Close()
		lrms[i] = &treeLRM{lrm: lrm, leaf: leaf, capacity: capacity}
		rep.Principals++
		rep.LRMs++
	}

	// Seed the upper levels' books with the leaves' aggregates.
	for _, lf := range leaves {
		if err := lf.cluster.ReportUpstream(); err != nil {
			return nil, fmt.Errorf("modeltest: tree %s report upstream: %w", lf.name, err)
		}
	}
	for m, mid := range mids {
		if err := mid.ReportUpstream(); err != nil {
			return nil, fmt.Errorf("modeltest: tree mid %d report upstream: %w", m, err)
		}
	}

	const tol = 1e-6
	fail := func(step int, op, format string, args ...any) *TreeReport {
		rep.Steps = step + 1
		rep.Failure = &TreeFailure{Seed: opts.Seed, Step: step, Op: op, Msg: fmt.Sprintf(format, args...)}
		return rep
	}

	// booksDigest folds every level's books into one FNV-1a digest —
	// availability and computed capacities at each leaf (through the
	// routers' merged caps) and at each upper server. It also enforces
	// the non-negativity invariants while it walks.
	var buf [8]byte
	writeF := func(h interface{ Write([]byte) (int, error) }, x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	booksDigest := func() (uint64, error) {
		h := fnv.New64a()
		for _, lf := range leaves {
			resp := lf.cluster.Handle(&grm.Request{Caps: &grm.CapsRequest{}})
			if resp.Err != "" {
				return 0, fmt.Errorf("%s caps: %s", lf.name, resp.Err)
			}
			for i, a := range resp.Caps.Available {
				c := resp.Caps.Capacities[i]
				if a < -tol {
					return 0, fmt.Errorf("%s principal %d available %g negative", lf.name, i, a)
				}
				if c < a-tol {
					return 0, fmt.Errorf("%s principal %d capacity %g below available %g", lf.name, i, c, a)
				}
				writeF(h, a)
				writeF(h, c)
			}
		}
		for _, srv := range append([]*grm.Server{root}, mids...) {
			st, err := srv.Status()
			if err != nil {
				return 0, fmt.Errorf("status: %w", err)
			}
			for _, ps := range st.Principals {
				if ps.Available < -tol {
					return 0, fmt.Errorf("upper principal %q available %g negative", ps.Name, ps.Available)
				}
				writeF(h, ps.Available)
				writeF(h, ps.Capacity)
			}
		}
		return h.Sum64(), nil
	}

	// leafDigest folds one leaf cluster's merged status — books, leases,
	// agreements, and borrow balances — for the restart recovery check.
	// Borrow liveness flags are excluded: recovery cannot resurrect the
	// parent links themselves, only the balances.
	leafDigest := func(lf *treeLeaf) (uint64, error) {
		st, err := lf.cluster.Status()
		if err != nil {
			return 0, err
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "leases=%d agreements=%d\n", st.Leases, st.Agreements)
		for _, ps := range st.Principals {
			fmt.Fprintf(h, "p%d %s ", ps.Principal, ps.Name)
			writeF(h, ps.Available)
			writeF(h, ps.Reported)
			writeF(h, ps.Capacity)
		}
		for _, b := range st.Federation.Borrows {
			fmt.Fprintf(h, "borrow %d ", b.ParentLease)
			writeF(h, b.Amount)
		}
		return h.Sum64(), nil
	}

	var leases []treeLease
	seenTokens := make([]map[int]bool, nleaves)
	for i := range seenTokens {
		seenTokens[i] = map[int]bool{}
	}

	restartLeaf := func(step int, li int) (string, *TreeReport) {
		lf := leaves[li]
		before, err := leafDigest(lf)
		if err != nil {
			return "", fail(step, "restart", "pre-restart digest %s: %v", lf.name, err)
		}
		if err := lf.cluster.Close(); err != nil {
			return "", fail(step, "restart", "close %s: %v", lf.name, err)
		}
		if err := newCluster(lf, true); err != nil {
			return "", fail(step, "restart", "%v", err)
		}
		after, err := leafDigest(lf)
		if err != nil {
			return "", fail(step, "restart", "post-recovery digest %s: %v", lf.name, err)
		}
		if after != before {
			return "", fail(step, "restart", "%s recovered books digest %016x, want %016x", lf.name, after, before)
		}
		if err := startCluster(lf); err != nil {
			return "", fail(step, "restart", "%v", err)
		}
		rep.Restarts++
		return fmt.Sprintf("restart %s digest=%016x", lf.name, before), nil
	}

	for step := 0; step < opts.Steps; step++ {
		var line string
		op := rng.Intn(12)
		if step == opts.Steps/2 {
			// One restart is pinned to the schedule's midpoint so every
			// seed proves per-shard WAL recovery mid-run.
			op = 11
		}
		switch op {
		case 0, 1, 2: // report via a wire client
			i := rng.Intn(len(lrms))
			x := grid(rng.Float64() * lrms[i].capacity * 1.2)
			if err := lrms[i].lrm.Report(x); err != nil {
				return fail(step, "report", "lrm%d Report(%g): %v", i, x, err), nil
			}
			line = fmt.Sprintf("report lrm%d %g", i, x)

		case 3, 4, 5, 6: // allocate via a wire client; oversized asks borrow up the tree
			i := rng.Intn(len(lrms))
			tl := lrms[i]
			amount := grid(0.5 + rng.Float64()*tl.capacity)
			kind := "local"
			if rng.Intn(3) == 0 {
				// Past the whole cluster's worth: the leaf's deficit
				// borrows from its mid, which may borrow from the root.
				amount = grid(tl.capacity * (2 + rng.Float64()*2))
				kind = "deep"
			}
			reply, err := tl.lrm.Allocate(amount)
			if err != nil {
				if strings.Contains(err.Error(), "insufficient") || strings.Contains(err.Error(), "short of") {
					// Legitimate refusal: even the root ran dry. The books
					// must be untouched (the digest below verifies).
					line = fmt.Sprintf("alloc lrm%d %g refused", i, amount)
					break
				}
				return fail(step, "alloc", "lrm%d Allocate(%g): %v", i, amount, err), nil
			}
			var sum float64
			negative := -1
			reply.Each(func(gp int, take float64) {
				if take < -tol && negative < 0 {
					negative = gp
				}
				sum += take
			})
			if negative >= 0 {
				return fail(step, "alloc", "lrm%d take from principal %d is negative", i, negative), nil
			}
			if math.Abs(sum-amount) > tol {
				return fail(step, "alloc", "lrm%d Σ takes = %g, requested %g", i, sum, amount), nil
			}
			if seenTokens[tl.leaf][reply.Lease] {
				return fail(step, "alloc", "leaf%d lease token %d reused", tl.leaf, reply.Lease), nil
			}
			seenTokens[tl.leaf][reply.Lease] = true
			leases = append(leases, treeLease{leaf: tl.leaf, lrm: i, token: reply.Lease})
			line = fmt.Sprintf("alloc lrm%d %g %s lease=%d theta=%.9g", i, amount, kind, reply.Lease, reply.Theta)

		case 7: // release an outstanding lease (repays any borrow behind it)
			if len(leases) == 0 {
				line = "release skipped (no leases)"
				break
			}
			j := rng.Intn(len(leases))
			le := leases[j]
			if err := lrms[le.lrm].lrm.Release(le.token); err != nil {
				return fail(step, "release", "lrm%d Release(%d): %v", le.lrm, le.token, err), nil
			}
			leases = append(leases[:j], leases[j+1:]...)
			line = fmt.Sprintf("release lrm%d lease=%d", le.lrm, le.token)

		case 8: // in-process report for a bulk principal
			lf := leaves[rng.Intn(nleaves)]
			ids := lf.bulk[rng.Intn(opts.ShardsPerLeaf)]
			if len(ids) == 0 {
				line = "bulkreport skipped (no bulk principals)"
				break
			}
			id := ids[rng.Intn(len(ids))]
			x := grid(rng.Float64() * 10)
			resp := lf.cluster.Handle(&grm.Request{Report: &grm.ReportRequest{Principal: id, Available: x}})
			if resp.Err != "" {
				return fail(step, "bulkreport", "%s p%d: %s", lf.name, id, resp.Err), nil
			}
			line = fmt.Sprintf("bulkreport %s p%d %g", lf.name, id, x)

		case 9, 10: // refresh the upper levels' aggregate views
			li := rng.Intn(nleaves)
			lf := leaves[li]
			if err := lf.cluster.ReportUpstream(); err != nil {
				return fail(step, "upstream", "%s: %v", lf.name, err), nil
			}
			mid := li / opts.LeavesPerMid
			if err := mids[mid].ReportUpstream(); err != nil {
				return fail(step, "upstream", "mid%d: %v", mid, err), nil
			}
			line = fmt.Sprintf("upstream %s mid%d", lf.name, mid)

		case 11: // restart a leaf cluster, recovering its per-shard WALs
			li := rng.Intn(nleaves)
			var failed *TreeReport
			line, failed = restartLeaf(step, li)
			if failed != nil {
				return failed, nil
			}
		}

		digest, err := booksDigest()
		if err != nil {
			return fail(step, "invariant", "after %q: %v", line, err), nil
		}
		rep.Trace = append(rep.Trace, fmt.Sprintf("%4d %s | h=%016x", step, line, digest))
		rep.Steps = step + 1
	}

	// The leaves' closing borrow balances, for the report.
	for _, lf := range leaves {
		st, err := lf.cluster.Status()
		if err != nil {
			return nil, fmt.Errorf("modeltest: tree closing status: %w", err)
		}
		rep.Borrowed += st.Federation.TotalBorrowed
	}
	return rep, nil
}
