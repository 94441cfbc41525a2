package modeltest

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/grm"
	"repro/internal/scenario"
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
	for _, d := range []struct {
		field *int
		value int
	}{
		{&o.Steps, 50}, {&o.Mids, 2}, {&o.LeavesPerMid, 1}, {&o.ShardsPerLeaf, 2}, {&o.Principals, 300}, {&o.LRMs, 12},
	} {
		if *d.field <= 0 {
			*d.field = d.value
		}
	}
	o.LRMs = min(o.LRMs, o.Principals)
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
	Failure *RunFailure
}

// treeLeaf is where the run places one leaf cluster's principals.
type treeLeaf struct {
	name string
	// prefixes[s] is a subtree prefix the router maps to shard s, so the
	// run can place principals and keep agreements intra-shard.
	prefixes []string
	// bulk holds the in-process principals' global ids, grouped by shard
	// prefix so agreement blocks stay on one shard.
	bulk [][]int
}

// treeLRM is one wire client of a leaf cluster.
type treeLRM struct {
	*scenario.Node
	leaf     int
	capacity float64
}

// treeLease is one outstanding allocation made by the LRM fleet.
type treeLease struct {
	lrm, token int
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

	// Root, mids each an LRM of the root, and sharded leaf clusters each
	// an LRM of its mid, every shard journaling into its own log. No
	// lease TTL anywhere: every server's background reaper stays off, so
	// the only transitions are the schedule's.
	nleaves := opts.Mids * opts.LeavesPerMid
	leafNames, midNames := make([]string, nleaves), make([]string, opts.Mids)
	for i := range leafNames {
		leafNames[i] = fmt.Sprintf("leaf%d", i)
	}
	for m := range midNames {
		midNames[m] = fmt.Sprintf("mid%d", m)
	}
	h, err := scenario.Start(scenario.Topology{
		Config: treeConfig,
		Shards: opts.ShardsPerLeaf,
		Parents: []scenario.Level{
			{Config: treeConfig, Width: opts.Mids, Children: leafNames},
			{Config: treeConfig, Children: midNames},
		},
	})
	if err != nil {
		return nil, fmt.Errorf("modeltest: tree: %w", err)
	}
	defer h.Close()

	// Probe subtree prefixes until every shard of every leaf has one.
	leaves := make([]*treeLeaf, nleaves)
	for i := range leaves {
		router := h.Leaf(i).(*grm.Sharded)
		lf := &treeLeaf{name: leafNames[i], prefixes: make([]string, opts.ShardsPerLeaf), bulk: make([][]int, opts.ShardsPerLeaf)}
		leaves[i] = lf
		for found, p := 0, 0; found < opts.ShardsPerLeaf; p++ {
			if p > 100_000 {
				return nil, fmt.Errorf("modeltest: tree: no prefix for every shard of %s", lf.name)
			}
			name := fmt.Sprintf("b%d", p)
			if s := router.ShardOf(name + "/probe"); lf.prefixes[s] == "" {
				lf.prefixes[s] = name
				found++
			}
		}
	}

	// Bulk population, registered in-process through each router. The
	// shard prefix rotates per principal so every shard fills evenly.
	nbulk := opts.Principals - opts.LRMs
	for k := 0; k < nbulk; k++ {
		lf := leaves[k%nleaves]
		shard := (k / nleaves) % opts.ShardsPerLeaf
		name := fmt.Sprintf("%s/p%d", lf.prefixes[shard], k)
		resp := h.Leaf(k % nleaves).Handle(&grm.Request{Register: &grm.RegisterRequest{
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
	for li, lf := range leaves {
		for _, ids := range lf.bulk {
			for start := 0; start < len(ids); start += blockSize {
				end := min(start+blockSize, len(ids))
				var shares []*grm.ShareRequest
				for j := start; j+1 < end; j++ {
					shares = append(shares, &grm.ShareRequest{From: ids[j], To: ids[j+1], Fraction: grid(0.1 + rng.Float64()*0.3)})
				}
				if end-start >= 2 {
					shares = append(shares, &grm.ShareRequest{From: ids[end-1], To: ids[start], Quantity: grid(1 + rng.Float64()*3)})
				}
				for _, share := range shares {
					if resp := h.Leaf(li).Handle(&grm.Request{Share: share}); resp.Err != "" {
						return nil, fmt.Errorf("modeltest: tree share: %s", resp.Err)
					}
				}
			}
		}
	}

	// The LRM fleet, spread round-robin over leaves and shard prefixes.
	lrms := make([]*treeLRM, opts.LRMs)
	for i := range lrms {
		leaf := i % nleaves
		lf := leaves[leaf]
		prefix := lf.prefixes[(i/nleaves)%opts.ShardsPerLeaf]
		capacity := 1 + grid(rng.Float64()*9)
		node, err := h.Dial(leaf, fmt.Sprintf("%s/lrm%d", prefix, i), capacity)
		if err != nil {
			return nil, fmt.Errorf("modeltest: tree dial lrm%d: %w", i, err)
		}
		lrms[i] = &treeLRM{Node: node, leaf: leaf, capacity: capacity}
		rep.Principals++
		rep.LRMs++
	}

	// Seed the upper levels' books with the leaves', then the mids',
	// aggregates.
	for level, names := range [][]string{leafNames, midNames} {
		for i, name := range names {
			if err := h.Upstream(level, i); err != nil {
				return nil, fmt.Errorf("modeltest: tree %s report upstream: %w", name, err)
			}
		}
	}

	const tol = 1e-6
	fail := func(step int, op, format string, args ...any) *TreeReport {
		rep.Steps = step + 1
		rep.Failure = &RunFailure{Seed: opts.Seed, Step: step, Op: op, Msg: fmt.Sprintf(format, args...), run: "tree"}
		return rep
	}

	var leases []treeLease
	seenTokens := map[[2]int]bool{} // by leaf and lease token

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
			if err := lrms[i].Report(x); err != nil {
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
			reply, err := tl.Allocate(amount)
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
			seen := [2]int{tl.leaf, reply.Lease}
			if seenTokens[seen] {
				return fail(step, "alloc", "leaf%d lease token %d reused", tl.leaf, reply.Lease), nil
			}
			seenTokens[seen] = true
			leases = append(leases, treeLease{lrm: i, token: reply.Lease})
			line = fmt.Sprintf("alloc lrm%d %g %s lease=%d theta=%.9g", i, amount, kind, reply.Lease, reply.Theta)

		case 7: // release an outstanding lease (repays any borrow behind it)
			if len(leases) == 0 {
				line = "release skipped (no leases)"
				break
			}
			j := rng.Intn(len(leases))
			le := leases[j]
			if err := lrms[le.lrm].Release(le.token); err != nil {
				return fail(step, "release", "lrm%d Release(%d): %v", le.lrm, le.token, err), nil
			}
			leases = append(leases[:j], leases[j+1:]...)
			line = fmt.Sprintf("release lrm%d lease=%d", le.lrm, le.token)

		case 8: // in-process report for a bulk principal
			li := rng.Intn(nleaves)
			lf := leaves[li]
			ids := lf.bulk[rng.Intn(opts.ShardsPerLeaf)]
			if len(ids) == 0 {
				line = "bulkreport skipped (no bulk principals)"
				break
			}
			id := ids[rng.Intn(len(ids))]
			x := grid(rng.Float64() * 10)
			resp := h.Leaf(li).Handle(&grm.Request{Report: &grm.ReportRequest{Principal: id, Available: x}})
			if resp.Err != "" {
				return fail(step, "bulkreport", "%s p%d: %s", lf.name, id, resp.Err), nil
			}
			line = fmt.Sprintf("bulkreport %s p%d %g", lf.name, id, x)

		case 9, 10: // refresh the upper levels' aggregate views
			li := rng.Intn(nleaves)
			lf := leaves[li]
			if err := h.Upstream(0, li); err != nil {
				return fail(step, "upstream", "%s: %v", lf.name, err), nil
			}
			mid := li / opts.LeavesPerMid
			if err := h.Upstream(1, mid); err != nil {
				return fail(step, "upstream", "mid%d: %v", mid, err), nil
			}
			line = fmt.Sprintf("upstream %s mid%d", lf.name, mid)

		case 11: // restart a leaf cluster, recovering its per-shard WALs
			li := rng.Intn(nleaves)
			digest, err := h.Restart(li, false)
			if err != nil {
				return fail(step, "restart", "%s: %v", leaves[li].name, err), nil
			}
			rep.Restarts++
			line = fmt.Sprintf("restart %s digest=%016x", leaves[li].name, digest)
		}

		books, err := h.Check()
		if err != nil {
			return fail(step, "invariant", "after %q: %v", line, err), nil
		}
		rep.Trace = append(rep.Trace, fmt.Sprintf("%4d %s | h=%016x", step, line, digestBooks(books)))
		rep.Steps = step + 1
	}

	// The leaves' closing borrow balances, for the report.
	for li := range leaves {
		st, err := h.Leaf(li).Status()
		if err != nil {
			return nil, fmt.Errorf("modeltest: tree closing status: %w", err)
		}
		rep.Borrowed += st.Federation.TotalBorrowed
	}
	return rep, nil
}

// digestBooks folds the books one check read into one FNV-1a digest:
// availability and computed capacity at each leaf (through the routers'
// merged caps), then at each upper server, root first.
func digestBooks(b *scenario.Books) uint64 {
	d := fnv.New64a()
	var buf [8]byte
	put := func(xs ...float64) {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			d.Write(buf[:])
		}
	}
	for _, caps := range b.Caps {
		for i, a := range caps.Available {
			put(a, caps.Capacities[i])
		}
	}
	for k := len(b.Status) - 1; k > 0; k-- {
		for _, st := range b.Status[k] {
			for _, ps := range st.Principals {
				put(ps.Available, ps.Capacity)
			}
		}
	}
	return d.Sum64()
}
