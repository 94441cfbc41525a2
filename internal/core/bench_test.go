package core

import (
	"math/rand"
	"testing"

	"repro/internal/agreement"
)

// Ablation benches for the design choices DESIGN.md calls out: the
// substituted n+1-variable LP vs the paper's literal n²+n+1-variable
// formulation, and flat planning over the 40 principals package planners
// refines by multi-grid (its BenchmarkPlanHierarchy40Level3).

func benchScenario(n int) (s [][]float64, v []float64) {
	rng := rand.New(rand.NewSource(11))
	s = make([][]float64, n)
	for i := range s {
		s[i] = make([]float64, n)
		for j := range s[i] {
			if i != j {
				s[i][j] = 0.5 / float64(n-1)
			}
		}
	}
	v = make([]float64, n)
	for i := range v {
		v[i] = 50 + rng.Float64()*50
	}
	return
}

func benchPlan(b *testing.B, al *Allocator, v []float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := al.Plan(v, 0, 40); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanSubstituted10(b *testing.B) {
	s, v := benchScenario(10)
	al, err := NewAllocator(sparse(s), nil, Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	benchPlan(b, al, v)
}

// benchPlanPrinted is benchPlan over the printed LP (faithful_test.go): the
// ablation the substituted form is measured against.
func benchPlanPrinted(b *testing.B, al *Allocator, v []float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, _, err := planPrinted(al, v, 0, 40, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanFaithful10(b *testing.B) {
	s, v := benchScenario(10)
	al, err := NewAllocator(sparse(s), nil, Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	benchPlanPrinted(b, al, v)
}

// The 30-principal variants plan over the exact closure at level 4, the
// deepest the serving budget admits on a complete graph of 30: level 5 is
// refused, and the full closure's chains are astronomically many.
func BenchmarkPlanSubstituted30Level4(b *testing.B) {
	s, v := benchScenario(30)
	al, err := NewAllocator(sparse(s), nil, Config{Level: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	benchPlan(b, al, v)
}

func BenchmarkPlanFaithful30Level4(b *testing.B) {
	s, v := benchScenario(30)
	al, err := NewAllocator(sparse(s), nil, Config{Level: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	benchPlanPrinted(b, al, v)
}

// benchLoopScenario is the sparse shape: each principal shares only with
// its two ring neighbors, so the flow matrix K and the LP are sparse and
// the allocator's column index pays off.
func benchLoopScenario(n int) (s [][]float64, v []float64) {
	rng := rand.New(rand.NewSource(11))
	s = make([][]float64, n)
	for i := range s {
		s[i] = make([]float64, n)
		s[i][(i+1)%n] = 0.4
		s[i][(i+n-1)%n] = 0.4
	}
	v = make([]float64, n)
	for i := range v {
		v[i] = 50 + rng.Float64()*50
	}
	return
}

func BenchmarkPlanLoop10(b *testing.B) {
	s, v := benchLoopScenario(10)
	al, err := NewAllocator(sparse(s), nil, Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	benchPlan(b, al, v)
}

func BenchmarkPlanLoop30(b *testing.B) {
	s, v := benchLoopScenario(30)
	al, err := NewAllocator(sparse(s), nil, Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	benchPlan(b, al, v)
}

// BenchmarkPlanParallel10 measures Plan throughput when hammered from all
// P goroutines at once: each plan builds its LP in a workspace of its own
// off the free list, so plans should scale instead of serializing on a
// shared model.
func BenchmarkPlanParallel10(b *testing.B) {
	s, v := benchScenario(10)
	al, err := NewAllocator(sparse(s), nil, Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := al.Plan(v, 0, 40); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkPlanFlat40Level3 plans over the exact closure of a complete
// graph of 40 at level 3, the deepest the serving budget admits.
func BenchmarkPlanFlat40Level3(b *testing.B) {
	s, v := benchScenario(40)
	al, err := NewAllocator(sparse(s), nil, Config{Level: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	benchPlan(b, al, v)
}

func BenchmarkNewAllocator10(b *testing.B) {
	dense, _ := benchScenario(10)
	s := sparse(dense)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewAllocator(s, nil, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCapacities10(b *testing.B) {
	s, v := benchScenario(10)
	al, err := NewAllocator(sparse(s), nil, Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al.Capacities(v)
	}
}

// batchBenchRequests is the 8-request mix the batching benchmarks share:
// every principal requests once, amounts small enough that all eight
// succeed against the benchScenario availabilities.
func batchBenchRequests() []BatchRequest {
	reqs := make([]BatchRequest, 8)
	for i := range reqs {
		reqs[i] = BatchRequest{Requester: i, Amount: 5 + float64(i)}
	}
	return reqs
}

// BenchmarkPlanSequential8 models the pre-batching alloc protocol this
// repo once had, for a burst of eight concurrent requests, serialized
// deterministically: an optimistic per-request loop solved each request
// against the availability snapshot taken at admission, and every commit
// bumped a state epoch, so a request that arrived before an earlier
// commit re-solved against the fresh state before its own commit. Only
// the re-solved plans committed, so the final allocations are
// bit-identical to the chained sequence PlanBatch produces — the burst
// just pays seven discarded solves to get there. The grm server no
// longer works this way (it plans each batch once, under its lock); the
// benchmark stays as the baseline PlanBatch8 is compared against.
func BenchmarkPlanSequential8(b *testing.B) {
	s, v := benchScenario(8)
	al, err := NewAllocator(sparse(s), nil, Config{})
	if err != nil {
		b.Fatal(err)
	}
	reqs := batchBenchRequests()
	cur := make([]float64, len(v))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(cur, v)
		for r, req := range reqs {
			// Admission-time optimistic solve against the burst's shared
			// snapshot; stale (and discarded) for every request but the
			// first, because each earlier commit moved the epoch.
			if r > 0 {
				if _, err := al.Plan(v, req.Requester, req.Amount); err != nil {
					b.Fatal(err)
				}
			}
			// Conflict re-solve against the committed state, then commit.
			a, err := al.Plan(cur, req.Requester, req.Amount)
			if err != nil {
				b.Fatal(err)
			}
			for j, take := range a.Take {
				cur[j] -= take
				if cur[j] < 0 {
					cur[j] = 0
				}
			}
		}
	}
}

// BenchmarkPlanChained8 is the zero-contention floor: the same eight
// requests as exactly eight Plan calls with the commit rule applied
// between them and no conflict replans. PlanBatch matches its solve
// count, so the two differ only in per-call overhead.
func BenchmarkPlanChained8(b *testing.B) {
	s, v := benchScenario(8)
	al, err := NewAllocator(sparse(s), nil, Config{})
	if err != nil {
		b.Fatal(err)
	}
	reqs := batchBenchRequests()
	cur := make([]float64, len(v))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(cur, v)
		for _, req := range reqs {
			a, err := al.Plan(cur, req.Requester, req.Amount)
			if err != nil {
				b.Fatal(err)
			}
			for j, take := range a.Take {
				cur[j] -= take
				if cur[j] < 0 {
					cur[j] = 0
				}
			}
		}
	}
}

// BenchmarkPlanBatch8 plans the same eight requests through PlanBatch;
// the allocations are bit-identical (batch_test.go checks) but the
// batch shares one workspace and bulk result arrays.
func BenchmarkPlanBatch8(b *testing.B) {
	s, v := benchScenario(8)
	al, err := NewAllocator(sparse(s), nil, Config{})
	if err != nil {
		b.Fatal(err)
	}
	reqs := batchBenchRequests()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := al.PlanBatch(v, reqs)
		for _, r := range res {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// Incremental-enforcement benches: agreement churn and availability
// churn against a prebuilt allocator, vs the cold rebuild path they
// replace. The scenario is a sparse 100-principal graph (ring plus
// chords) at level 5 — large enough that the cold path's LP build and
// solve dominate, sparse enough that exact enumeration stays in budget.

func incrementalScenario(n int) (s [][]float64, v []float64) {
	rng := rand.New(rand.NewSource(17))
	s = make([][]float64, n)
	for i := range s {
		s[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		s[i][(i+1)%n] = 0.3
		s[i][(i+7)%n] = 0.2
	}
	for e := 0; e < n/2; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			s[i][j] = 0.15
		}
	}
	v = make([]float64, n)
	for i := range v {
		v[i] = 50 + rng.Float64()*50
	}
	return
}

// BenchmarkPlanColdRebuild100 is the baseline the incremental paths are
// measured against: every agreement or availability change pays a full
// NewAllocator (chain enumeration, caches) plus a cold Plan.
func BenchmarkPlanColdRebuild100(b *testing.B) {
	s, v := incrementalScenario(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al, err := NewAllocator(sparse(s), nil, Config{Level: 5})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := al.Plan(v, 0, 30); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewAllocator100 isolates the rebuild cost without a solve.
func BenchmarkNewAllocator100(b *testing.B) {
	dense, _ := incrementalScenario(100)
	s := sparse(dense)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewAllocator(s, nil, Config{Level: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdateEdge100 patches a single agreement edge in place through
// the delta-closure path (PatchShare), moving its value and back on
// alternate iterations: every cache the edge cannot reach is left alone.
func BenchmarkUpdateEdge100(b *testing.B) {
	s, _ := incrementalScenario(100)
	al, err := NewAllocator(sparse(s), nil, Config{Level: 5})
	if err != nil {
		b.Fatal(err)
	}
	vals := [2]float64{s[3][4], 0.45}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := al.PatchShare(3, 4, vals[i%2], vals[(i+1)%2]); err != nil {
			b.Fatal(err)
		}
	}
}

// Sparse-first benches: the n=1000 scale the sharded GRM tree runs at.
// The scenario is the tree harness's shape — disjoint blocks of eight
// principals chained by relative agreements with one absolute edge
// closing each block — so S and A stay a few entries per row and the
// CSR-backed allocator never materializes an n² matrix.

func sparse1000Scenario() (s, a *agreement.SparseMatrix, v []float64) {
	return sparseBlocksScenario(1000)
}

// sparseBlocksScenario is the blocks-of-eight population at any n.
func sparseBlocksScenario(n int) (s, a *agreement.SparseMatrix, v []float64) {
	const block = 8
	rng := rand.New(rand.NewSource(23))
	sb := agreement.NewSparseBuilder(n)
	ab := agreement.NewSparseBuilder(n)
	for start := 0; start < n; start += block {
		for j := start; j+1 < start+block && j+1 < n; j++ {
			sb.Add(j, j+1, 0.1+rng.Float64()*0.3)
		}
		end := start + block
		if end > n {
			end = n
		}
		if end-start >= 2 {
			ab.Add(end-1, start, 1+rng.Float64()*3)
		}
	}
	v = make([]float64, n)
	for i := range v {
		v[i] = 50 + rng.Float64()*50
	}
	return sb.Build(), ab.Build(), v
}

// BenchmarkPlanSparse1000 is one allocation solve against the prebuilt
// sparse allocator with the default full substituted LP: sparse inputs
// shrink the constraint coefficients, but the model still carries all
// n+1 variables and ~n perturb rows — the O(n²) tableau this pays is
// exactly what ComponentLP (next bench) removes.
func BenchmarkPlanSparse1000(b *testing.B) {
	s, a, v := sparse1000Scenario()
	al, err := NewAllocator(s, a, Config{Level: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	benchPlan(b, al, v)
}

// BenchmarkPlanSparseComponent1000 is the same solve with ComponentLP:
// the LP keeps only the requester's agreement component, so the
// tableau is a handful of variables instead of n+1 — the configuration
// the sharded GRM tree runs at scale.
func BenchmarkPlanSparseComponent1000(b *testing.B) {
	s, a, v := sparse1000Scenario()
	al, err := NewAllocator(s, a, Config{Level: 5, ComponentLP: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	benchPlan(b, al, v)
}

// BenchmarkPlanPairsComponent4096 is the plan the sharded GRM serves: the
// blocks-of-eight population at the tree benchmark's size under
// ComponentLP, planned in pair form into reused slices. It costs the
// block, not the 4 096, and allocates nothing.
func BenchmarkPlanPairsComponent4096(b *testing.B) {
	s, a, v := sparseBlocksScenario(4096)
	al, err := NewAllocator(s, a, Config{Level: 5, ComponentLP: true})
	if err != nil {
		b.Fatal(err)
	}
	var sources []int
	var takes []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sources, takes, _, err = al.PlanPairs(sources[:0], takes[:0], v, 0, 40); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanPairsLRM4096 is the plan tree_sharded's LRMs allocate
// through: the blocks-of-eight population of 4 096 under ComponentLP, plus
// one principal that every member of the first block shares 0.3 with, which
// plans. Its LP has nine variables and the block's rows, where
// BenchmarkPlanPairsComponent4096's requester has one source.
func BenchmarkPlanPairsLRM4096(b *testing.B) {
	const n = 4096
	s, a, v := sparseBlocksScenario(n)
	sb, ab := agreement.NewSparseBuilder(n+1), agreement.NewSparseBuilder(n+1)
	for i := 0; i < n; i++ {
		cols, vals := s.Row(i)
		for x, j := range cols {
			sb.Add(i, int(j), vals[x])
		}
		cols, vals = a.Row(i)
		for x, j := range cols {
			ab.Add(i, int(j), vals[x])
		}
	}
	for j := 0; j < 8; j++ {
		sb.Add(j, n, 0.3)
	}
	al, err := NewAllocator(sb.Build(), ab.Build(), Config{ComponentLP: true})
	if err != nil {
		b.Fatal(err)
	}
	v = append(v, 20)
	var sources []int
	var takes []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sources, takes, _, err = al.PlanPairs(sources[:0], takes[:0], v, n, 1.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCapacitiesSparse1000 is the caps sweep the status and caps
// handlers pay: one pass over the column triples, O(n + nnz).
func BenchmarkCapacitiesSparse1000(b *testing.B) {
	s, a, v := sparse1000Scenario()
	al, err := NewAllocator(s, a, Config{Level: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al.Capacities(v)
	}
}

// BenchmarkNewAllocatorSparse1000 is the cold build from CSR inputs —
// validation, closure, and column triples without ever expanding S or A
// to n² cells.
func BenchmarkNewAllocatorSparse1000(b *testing.B) {
	s, a, _ := sparse1000Scenario()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewAllocator(s, a, Config{Level: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// The next two are the n² → edges benches at the size one tree_sharded
// shard would have unsharded: 4096 principals in blocks of eight. Bytes
// per operation is the number to watch — a build used to allocate two
// dense 4096² matrices (268 MB), a registration to copy them.

func BenchmarkNewAllocatorSparse4096(b *testing.B) {
	s, a, _ := sparseBlocksScenario(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewAllocator(s, a, Config{ComponentLP: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildShard2049 is what a tree_sharded leaf shard pays to build
// its planner from its books: the fold of 2 056 shares over 2 049
// principals — 256 blocks of eight, each a chain of relative shares closed
// by an absolute one, and the eight members of one block sharing with the
// shard's LRM principal — into S and A, and NewAllocator over them under
// ComponentLP.
func BenchmarkBuildShard2049(b *testing.B) {
	const n, block = 2049, 8
	rng := rand.New(rand.NewSource(1))
	var shares []agreement.Share
	for first := 0; first+block <= n-1; first += block {
		for j := first; j+1 < first+block; j++ {
			shares = append(shares, agreement.Share{From: j, To: j + 1, Fraction: 0.1 + 0.3*rng.Float64()})
		}
		shares = append(shares, agreement.Share{From: first + block - 1, To: first, Quantity: 1 + 3*rng.Float64()})
	}
	for j := 0; j < block; j++ {
		shares = append(shares, agreement.Share{From: j, To: n - 1, Fraction: 0.25 + 0.1*rng.Float64()})
	}
	var base *agreement.Base
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := base.Fold(n)
		for _, sh := range shares {
			f.Add(sh)
		}
		s, a := f.Build()
		if _, err := NewAllocator(s, a, Config{ComponentLP: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGrowSparse4096 registers one principal, in place: an amortized
// append to every per-principal table. The
// planner is rebuilt at 4 096, untimed, every 1 024 registrations, so each
// one lands in a population between 4 096 and 5 120 and the tables' growth
// is paid at its amortized rate.
func BenchmarkGrowSparse4096(b *testing.B) {
	s, a, _ := sparseBlocksScenario(4096)
	var al *Allocator
	build := func() {
		var err error
		if al, err = NewAllocator(s, a, Config{ComponentLP: true}); err != nil {
			b.Fatal(err)
		}
	}
	build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%1024 == 0 {
			b.StopTimer()
			build()
			b.StartTimer()
		}
		al.Grow(1)
	}
}

// The write path at the benchmark's churn128 shape: every share and every
// revoke patches the allocator in place (PatchShare), and the next plan
// builds its requester's LP from what the write left.

// churn128Allocator is that shape: 16 blocks of eight principals, each a
// chain of relative agreements closed by one absolute back-edge, under the
// full formulation.
func churn128Allocator(t testing.TB) *Allocator { return churnAllocator(t, 128) }

// churnAllocator is the same shape over n principals, n/8 blocks.
func churnAllocator(t testing.TB, n int) *Allocator {
	t.Helper()
	s, a, _ := sparseBlockScenario(n, 1)
	al, err := NewAllocator(s, a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return al
}

// ring64Allocator is the benchmark's ring64 shape: one ring of 64
// principals, each sharing about 0.4 of its capacity with both neighbours,
// under the full closure; v is about 100 each.
func ring64Allocator(t testing.TB) (*Allocator, []float64) {
	t.Helper()
	const n = 64
	rng := rand.New(rand.NewSource(1))
	sb := agreement.NewSparseBuilder(n)
	v := make([]float64, n)
	for i := range v {
		v[i] = 90 + 20*rng.Float64()
		sb.Add(i, (i+1)%n, 0.38+0.04*rng.Float64())
		sb.Add(i, (i+n-1)%n, 0.38+0.04*rng.Float64())
	}
	al, err := NewAllocator(sb.Build(), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return al, v
}

// benchPlanPairs times the served plan, PlanPairs into reused slices, for
// every requester in turn after each has planned once (so the workspace's
// buffers fit every requester's LP): the simplex is most of what it
// measures.
func benchPlanPairs(b *testing.B, al *Allocator, v []float64, amount float64) {
	var sources []int
	var takes []float64
	plan := func(r int) {
		var err error
		if sources, takes, _, err = al.PlanPairs(sources[:0], takes[:0], v, r%al.N(), amount); err != nil {
			b.Fatal(err)
		}
	}
	for r := 0; r < al.N(); r++ {
		plan(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan(i)
	}
}

// BenchmarkPlanPairsChurn128 is a plan as churn128 serves it: the full
// formulation over 128 principals in blocks of eight.
func BenchmarkPlanPairsChurn128(b *testing.B) {
	_, _, v := sparseBlockScenario(128, 1)
	benchPlanPairs(b, churn128Allocator(b), v, 1.5)
}

// BenchmarkPlanPairsRing64 is a plan as ring64 serves it: one 64-principal
// component, every principal a variable of every plan.
func BenchmarkPlanPairsRing64(b *testing.B) {
	al, v := ring64Allocator(b)
	benchPlanPairs(b, al, v, 10)
}

// BenchmarkBuildLP128 builds one requester's 129-variable LP, numbers
// included, under the full formulation, into a workspace that has built
// them all before: the part of a plan that precedes the solve.
func BenchmarkBuildLP128(b *testing.B) {
	al := churn128Allocator(b)
	_, _, v := sparseBlockScenario(128, 1)
	ws := newPlanWS()
	for r := 0; r < al.n; r++ {
		al.build(ws, v, r, 1.5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al.build(ws, v, i%al.n, 1.5)
	}
}

// patchSharePair is a churn cycle's two writes as the grm server makes
// them: a block's head shares a further 0.005 with a neighbour down its
// chain (one T row and up to seven K columns move) and revokes it, both
// patching al in place, the i-th pair sharing with neighbour 1 + i%7. Six
// pairs in seven add an S entry and remove it again (flipSharePair); the
// seventh moves a value only (valueSharePair).
func patchSharePair(al *Allocator, i int) error { return sharePair(al, 0, 1+i%7) }

// valueSharePair is a share and its revoke that move values only: the i-th
// pair has principal i%7 of the first block share a further 0.005 with its
// successor down the chain, and take it back.
func valueSharePair(al *Allocator, i int) error { return sharePair(al, i%7, i%7+1) }

// flipSharePair is a share and its revoke that flip S's pattern: the i-th
// pair has the first block's head share 0.005 with principal 2 + i%6, which
// it reaches down its chain but does not share with, and take it back.
func flipSharePair(al *Allocator, i int) error { return sharePair(al, 0, 2+i%6) }

// sharePair patches S[from][to] up by 0.005 and back, in place.
func sharePair(al *Allocator, from, to int) error {
	old := al.Share(from, to)
	if err := al.PatchShare(from, to, old, old+0.005); err != nil {
		return err
	}
	return al.PatchShare(from, to, old+0.005, old)
}

// BenchmarkPatchShareChurn128 is patchSharePair at churn128: no table is
// copied, and the T row and the columns, whose values alone move, are
// written over, so what is left is the S row of the six pairs in seven that
// add an entry and remove it.
func BenchmarkPatchShareChurn128(b *testing.B) { benchPatchShare(b, churn128Allocator(b)) }

// BenchmarkPatchShare4096 is the same pair in a population of 4 096: it
// costs what it costs at 128, but for the affected set's predecessor scan,
// which reads every row.
func BenchmarkPatchShare4096(b *testing.B) { benchPatchShare(b, churnAllocator(b, 4096)) }

// BenchmarkPatchShareValues128 is the served write as churn128's
// sequential window makes it: a share on an edge that already exists and
// its revoke (valueSharePair), which move values only and allocate
// nothing.
func BenchmarkPatchShareValues128(b *testing.B) {
	benchPairs(b, churn128Allocator(b), valueSharePair)
}

// BenchmarkPatchShareValues4096 is the same pair in a population of 4 096.
func BenchmarkPatchShareValues4096(b *testing.B) {
	benchPairs(b, churnAllocator(b, 4096), valueSharePair)
}

func benchPatchShare(b *testing.B, al *Allocator) { benchPairs(b, al, patchSharePair) }

// benchPairs times pair(al, i) for i from 0, after seven untimed pairs.
func benchPairs(b *testing.B, al *Allocator, pair func(*Allocator, int) error) {
	for i := 0; i < 7; i++ {
		if err := pair(al, i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pair(al, i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChurnCycle128 is what a churn128 cycle asks of the planner: a
// block's head shares a further 0.005 with a neighbour down its chain,
// plans, revokes the share and plans again — two writes patched in place
// (PatchShare), each followed by the plan it leaves to pay.
func BenchmarkChurnCycle128(b *testing.B) {
	al := churn128Allocator(b)
	_, _, v := sparseBlockScenario(128, 1)
	var sources []int
	var takes []float64
	plan := func() {
		var err error
		if sources, takes, _, err = al.PlanPairs(sources[:0], takes[:0], v, 0, 1.5); err != nil {
			b.Fatal(err)
		}
	}
	plan()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		to := 1 + i%7
		old := al.Share(0, to)
		if err := al.PatchShare(0, to, old, old+0.005); err != nil {
			b.Fatal(err)
		}
		plan()
		if err := al.PatchShare(0, to, old+0.005, old); err != nil {
			b.Fatal(err)
		}
		plan()
	}
}
