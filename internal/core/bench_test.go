package core

import (
	"math/rand"
	"testing"

	"repro/internal/agreement"
)

// Ablation benches for the design choices DESIGN.md calls out: the
// substituted n+1-variable LP vs the paper's literal n²+n+1-variable
// formulation, the LP scheme vs the cheaper baselines, and flat vs
// hierarchical (multi-grid) planning.

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

func benchPlan(b *testing.B, planner Planner, v []float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := planner.Plan(v, 0, 40); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanSubstituted10(b *testing.B) {
	s, v := benchScenario(10)
	al, err := NewAllocator(s, nil, Config{})
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
	al, err := NewAllocator(s, nil, Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	benchPlanPrinted(b, al, v)
}

// The 30-principal variants use the matrix-power approximation: exact
// simple-path enumeration on a dense 30-node graph is astronomically
// exponential (that cliff is exactly what the transitive ablation bench
// demonstrates).
func BenchmarkPlanSubstituted30(b *testing.B) {
	s, v := benchScenario(30)
	al, err := NewAllocator(s, nil, Config{Approx: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	benchPlan(b, al, v)
}

func BenchmarkPlanFaithful30(b *testing.B) {
	s, v := benchScenario(30)
	al, err := NewAllocator(s, nil, Config{Approx: true})
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
	al, err := NewAllocator(s, nil, Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	benchPlan(b, al, v)
}

func BenchmarkPlanLoop30(b *testing.B) {
	s, v := benchLoopScenario(30)
	al, err := NewAllocator(s, nil, Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	benchPlan(b, al, v)
}

// BenchmarkPlanParallel10 measures Plan throughput when hammered from all
// P goroutines at once: the skeleton cache and pooled workspaces should
// scale instead of serializing on a shared model.
func BenchmarkPlanParallel10(b *testing.B) {
	s, v := benchScenario(10)
	al, err := NewAllocator(s, nil, Config{})
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

func BenchmarkPlanGreedy10(b *testing.B) {
	s, v := benchScenario(10)
	g, err := NewGreedy(s, nil, Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	benchPlan(b, g, v)
}

func BenchmarkPlanProportional10(b *testing.B) {
	s, v := benchScenario(10)
	p, err := NewProportional(s, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	benchPlan(b, p, v)
}

func BenchmarkPlanFlat40(b *testing.B) {
	s, v := benchScenario(40)
	al, err := NewAllocator(s, nil, Config{Approx: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	benchPlan(b, al, v)
}

func BenchmarkPlanHierarchy40(b *testing.B) {
	s, v := benchScenario(40)
	groups := make([][]int, 8)
	for g := range groups {
		for k := 0; k < 5; k++ {
			groups[g] = append(groups[g], g*5+k)
		}
	}
	h, err := NewHierarchy(s, nil, groups, Config{Approx: true})
	if err != nil {
		b.Fatal(err)
	}
	// Force the coarse path: drain the home group.
	drained := append([]float64(nil), v...)
	for _, p := range groups[0] {
		drained[p] = 1
	}
	b.ResetTimer()
	benchPlan(b, h, drained)
}

func BenchmarkNewAllocator10(b *testing.B) {
	s, _ := benchScenario(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewAllocator(s, nil, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCapacities10(b *testing.B) {
	s, v := benchScenario(10)
	al, err := NewAllocator(s, nil, Config{})
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
	al, err := NewAllocator(s, nil, Config{})
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
	al, err := NewAllocator(s, nil, Config{})
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
	al, err := NewAllocator(s, nil, Config{})
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
		al, err := NewAllocator(s, nil, Config{Level: 5})
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
	s, _ := incrementalScenario(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewAllocator(s, nil, Config{Level: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdateEdge100 mutates a single agreement edge through the
// delta-closure path: the allocator derived per iteration shares every
// cache the edge cannot reach.
func BenchmarkUpdateEdge100(b *testing.B) {
	s, _ := incrementalScenario(100)
	cur, err := NewAllocator(s, nil, Config{Level: 5})
	if err != nil {
		b.Fatal(err)
	}
	vals := [2]float64{s[3][4], 0.45}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := cur.SetShare(3, 4, vals[i%2], vals[(i+1)%2])
		if err != nil {
			b.Fatal(err)
		}
		cur = d
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
	al, err := NewAllocatorSparse(s, a, Config{Level: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	benchPlan(b, al, v)
}

// BenchmarkPlanSparseComponent1000 is the same solve with ComponentLP:
// the skeleton keeps only the requester's agreement component, so the
// tableau is a handful of variables instead of n+1 — the configuration
// the sharded GRM tree runs at scale.
func BenchmarkPlanSparseComponent1000(b *testing.B) {
	s, a, v := sparse1000Scenario()
	al, err := NewAllocatorSparse(s, a, Config{Level: 5, ComponentLP: true})
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
	al, err := NewAllocatorSparse(s, a, Config{Level: 5, ComponentLP: true})
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

// BenchmarkCapacitiesSparse1000 is the caps sweep the status and caps
// handlers pay: one pass over the column triples, O(n + nnz).
func BenchmarkCapacitiesSparse1000(b *testing.B) {
	s, a, v := sparse1000Scenario()
	al, err := NewAllocatorSparse(s, a, Config{Level: 5})
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
		if _, err := NewAllocatorSparse(s, a, Config{Level: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewAllocatorDense1000 is the same build fed dense n² inputs —
// the conversion and validation overhead the sparse entry point removes.
func BenchmarkNewAllocatorDense1000(b *testing.B) {
	s, a, _ := sparse1000Scenario()
	sd, ad := s.Dense(), a.Dense()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewAllocator(sd, ad, Config{Level: 5}); err != nil {
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
		if _, err := NewAllocatorSparse(s, a, Config{ComponentLP: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGrowSparse4096 registers one principal: O(n) slice headers,
// every row and column shared with the receiver.
func BenchmarkGrowSparse4096(b *testing.B) {
	s, a, _ := sparseBlocksScenario(4096)
	al, err := NewAllocatorSparse(s, a, Config{ComponentLP: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al.Grow(1)
	}
}

// The write path at the benchmark's churn128 shape: every share and every
// revoke derives an allocator (SetShare) and drops skeletons, and the next
// plan rebuilds the requester's.

// churn128Allocator is that shape: 16 blocks of eight principals, each a
// chain of relative agreements closed by one absolute back-edge, under the
// full formulation.
func churn128Allocator(t testing.TB) *Allocator {
	t.Helper()
	s, a, _ := sparseBlockScenario(128, 1)
	al, err := NewAllocatorSparse(s, a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return al
}

// BenchmarkBuildSkeleton128 builds one requester's 129-variable skeleton
// under the full formulation.
func BenchmarkBuildSkeleton128(b *testing.B) {
	al := churn128Allocator(b)
	sk := new(planSkeleton)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*sk = planSkeleton{}
		al.buildSkeleton(sk, i%al.n)
	}
}

// BenchmarkSetShareChurn128 is a churn cycle's two writes: a block's head
// shares a further 0.005 with a neighbour down its chain (one T row and up
// to seven K columns move) and revokes it.
func BenchmarkSetShareChurn128(b *testing.B) {
	cur := churn128Allocator(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		to := 1 + i%7
		old := cur.Share(0, to)
		shared, err := cur.SetShare(0, to, old, old+0.005)
		if err != nil {
			b.Fatal(err)
		}
		if cur, err = shared.SetShare(0, to, old+0.005, old); err != nil {
			b.Fatal(err)
		}
	}
}
