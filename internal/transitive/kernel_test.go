package transitive

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/num"
)

// takeDense scatters the accumulated row into an all-zero dense row and
// clears the scratch for the next row.
func (sc *rowScratch) takeDense(row []float64) {
	for _, j := range sc.touched {
		row[j] = sc.acc[j]
	}
	sc.discard()
}

// dfsRows computes T^(maxLen) with every row enumerated by the DFS, cap
// or no cap: the parent commit's kernel.
func dfsRows(n int, adj [][]int32, vals [][]float64, maxLen int) [][]float64 {
	maxLen = clampLevel(maxLen, n)
	t, g := zeros(n), rowsOf(adj, vals)
	sc := getScratch(n)
	for src := 0; src < n; src++ {
		st := newSteps(noCap, nil)
		sc.exactRowDFS(g, src, maxLen, &st)
		sc.takeDense(t[src])
	}
	scratchPool.Put(sc)
	return t
}

// dpRows computes T^(maxLen) with every row summed by the subset DP. The
// reach of every row must fit it.
func dpRows(t *testing.T, n int, adj [][]int32, vals [][]float64, maxLen int) [][]float64 {
	t.Helper()
	maxLen = clampLevel(maxLen, n)
	out, g := zeros(n), rowsOf(adj, vals)
	sc := getScratch(n)
	for src := 0; src < n; src++ {
		if sc.reach(g, src, maxLen) == noCap {
			t.Fatalf("row %d reaches more than %d principals", src, maxDPReach)
		}
		if !sc.exactRowDP(g, src, maxLen, nil) {
			t.Fatalf("row %d: unbudgeted DP refused", src)
		}
		sc.takeDense(out[src])
	}
	scratchPool.Put(sc)
	return out
}

// enumerate runs the DFS of row src under the given step cap and no
// meter, and returns the steps it took and how it stopped; the scratch is
// left clear.
func enumerate(sc *rowScratch, g []sparseRow, src, maxLen, limit int) (int, dfsEnd) {
	st := newSteps(limit, nil)
	end := sc.exactRowDFS(g, src, maxLen, &st)
	sc.discard()
	return st.n, end
}

// dpChosen reports, per row, whether the row's kernel is the DP: the DFS
// capped at the DP's cost runs out of steps.
func dpChosen(n int, adj [][]int32, vals [][]float64, maxLen int) []bool {
	maxLen = clampLevel(maxLen, n)
	out, g := make([]bool, n), rowsOf(adj, vals)
	sc := getScratch(n)
	for src := 0; src < n; src++ {
		_, end := enumerate(sc, g, src, maxLen, sc.reach(g, src, maxLen))
		out[src] = end == dfsCapped
	}
	scratchPool.Put(sc)
	return out
}

// rowsBy computes the first rows rows of T^(maxLen), the rest left zero,
// one row at a time through kernel on one scratch, under a counting
// meter, and returns the rows and what they charged.
func rowsBy(t *testing.T, n, rows, maxLen int, kernel func(sc *rowScratch, src, maxLen int, m *meter) bool) ([][]float64, int64) {
	t.Helper()
	maxLen = clampLevel(maxLen, n)
	out := zeros(n)
	m := &meter{limit: math.MaxInt64}
	sc := getScratch(n)
	defer scratchPool.Put(sc)
	for src := range out[:rows] {
		if !kernel(sc, src, maxLen, m) {
			t.Fatalf("row %d: unbudgeted kernel refused", src)
		}
		sc.takeDense(out[src])
	}
	return out, m.spent.Load()
}

// parentRule is the kernel choice before the router: every row runs the
// DFS capped at its DP's cost, and one that hits the cap is cleared and
// summed by the DP.
func parentRule(adj [][]int32, vals [][]float64) func(*rowScratch, int, int, *meter) bool {
	g := rowsOf(adj, vals)
	return func(sc *rowScratch, src, maxLen int, m *meter) bool {
		return sc.cappedRow(g, src, maxLen, sc.reach(g, src, maxLen), m)
	}
}

// servedRule is exactRow, the kernel choice every build and delta makes.
func servedRule(adj [][]int32, vals [][]float64) func(*rowScratch, int, int, *meter) bool {
	g := rowsOf(adj, vals)
	return func(sc *rowScratch, src, maxLen int, m *meter) bool {
		return sc.exactRow(g, src, maxLen, m)
	}
}

// weighted builds a complete graph of k principals with unequal shares
// of about scale each; a scale past 1 is the overdraft extension, which
// lifts the row-sum restriction.
func weighted(scale float64) func(*rand.Rand, int) (int, [][]int32, [][]float64) {
	return func(rng *rand.Rand, k int) (int, [][]int32, [][]float64) {
		s := zeros(k)
		for i := range s {
			for j := range s[i] {
				if i != j {
					s[i][j] = scale * (0.01 + rng.Float64())
				}
			}
		}
		return csrOf(s)
	}
}

// storedZeros builds a complete graph of k principals whose rows store
// every off-diagonal column, a third of them holding 0; with diagonal the
// rows store a zero diagonal entry too, which validateCSR admits.
func storedZeros(diagonal bool) func(*rand.Rand, int) (int, [][]int32, [][]float64) {
	return func(rng *rand.Rand, k int) (int, [][]int32, [][]float64) {
		adj, vals := make([][]int32, k), make([][]float64, k)
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				v := 0.0
				switch {
				case i == j && !diagonal:
					continue
				case i != j && rng.Intn(3) != 0:
					v = 0.05 + 0.5*rng.Float64()
				}
				adj[i], vals[i] = append(adj[i], int32(j)), append(vals[i], v)
			}
		}
		return k, adj, vals
	}
}

// worstRel returns the largest relative difference between two matrices
// and fails on any pair further apart than num.ChainSumTol.
func worstRel(t *testing.T, got, want [][]float64, label string) float64 {
	t.Helper()
	worst := 0.0
	for i := range want {
		for j := range want[i] {
			a, b := got[i][j], want[i][j]
			if !num.EqChainSum(a, b) {
				t.Fatalf("%s: [%d][%d] = %v, want %v (beyond num.ChainSumTol)", label, i, j, a, b)
			}
			if scale := math.Max(math.Abs(a), math.Abs(b)); scale > 0 {
				worst = math.Max(worst, math.Abs(a-b)/scale)
			}
		}
	}
	return worst
}

// TestKernelsAgree holds the two exact kernels to each other and to the
// recursive definition (exactRecursive is modeltest.RefTransitive's
// recursion, which this package cannot import) on complete graphs of 3 to
// 9 principals at every level: the DFS bit for bit, as it adds in the
// definition's order, and the DP within num.ChainSumTol. The variants
// cover unequal shares, shares above 1 (the overdraft extension lifts the
// row-sum restriction), zero-valued edges stored in the rows, and a
// complete block of 10 inside a population of 80.
func TestKernelsAgree(t *testing.T) {
	type variant struct {
		name  string
		build func(rng *rand.Rand, k int) (n int, adj [][]int32, vals [][]float64)
	}
	variants := []variant{
		{"unequal", weighted(0.3)},
		{"overdraft", weighted(1.7)},
		{"stored-zeros", storedZeros(false)},
	}
	worst := 0.0
	for _, v := range variants {
		for k := 3; k <= 9; k++ {
			rng := rand.New(rand.NewSource(int64(k)))
			n, adj, vals := v.build(rng, k)
			dense := denseOf(n, rowsOf(adj, vals))
			for level := 1; level < k; level++ {
				label := func(what string) string {
					return fmt.Sprintf("%s K%d level %d: %s", v.name, k, level, what)
				}
				ref := exactRecursive(dense, level)
				dfs := dfsRows(n, adj, vals, level)
				requireBitEqual(t, dfs, ref, label("DFS vs recursive definition"))
				dp := dpRows(t, n, adj, vals, level)
				worst = math.Max(worst, worstRel(t, dp, dfs, label("DP vs DFS")))
				// The served kernel is one or the other, row by row.
				c, _ := newClosureCSR(n, adj, vals, level, 0)
				got := rowsT(c)
				for i, useDP := range dpChosen(n, adj, vals, level) {
					want := dfs[i]
					if useDP {
						want = dp[i]
					}
					requireBitEqual(t, [][]float64{got[i]}, [][]float64{want}, label("closure row"))
				}
			}
		}
	}

	// A complete block of 10 (principals 30 to 39) in a population of 80.
	const lo = 30
	s := blockIn80()
	n, adj, vals := csrOf(s)
	for _, level := range []int{1, 2, 5, 8, 9, n - 1} {
		dfs := dfsRows(n, adj, vals, level)
		got := flows(s, level)
		worst = math.Max(worst, worstRel(t, got, dfs, "block of 10 in 80"))
		chosen := dpChosen(n, adj, vals, level)
		for i := range chosen {
			if !chosen[i] {
				requireBitEqual(t, [][]float64{got[i]}, [][]float64{dfs[i]}, "row the DFS finishes")
			}
		}
		if level >= 8 && !chosen[lo] {
			t.Fatalf("level %d: a row of the block was enumerated; the test is not reaching the DP past n=64", level)
		}
	}
	t.Logf("worst relative difference between the kernels: %.2g (num.ChainSumTol %.0g)", worst, num.ChainSumTol)
}

// TestKernelChoiceIsPerRow pins the rule's two promises on sparse graphs:
// rows the DFS finishes under its cap — every row of a ring, a chain, a
// tree, a low-level sweep of a clique — are plain enumeration bit for
// bit, and the choice looks at the row's own component only.
func TestKernelChoiceIsPerRow(t *testing.T) {
	tree := zeros(40)
	for i := 1; i < 40; i++ {
		tree[(i-1)/3][i] = 0.3
	}
	chain := zeros(30)
	for i := 0; i+1 < 30; i++ {
		chain[i][i+1] = 0.5
	}
	for name, g := range map[string]struct {
		s     [][]float64
		level int
	}{
		"ring64":        {ring(64, 0.5), 63},
		"ring100":       {ring(100, 0.5), 99},
		"chain":         {chain, 29},
		"tree":          {tree, 39},
		"K10 level 3":   {complete(10, 0.1), 3},
		"K16 level 2":   {complete(16, 0.05), 2},
		"random sparse": {randomSparse(rand.New(rand.NewSource(1)), 90, 200), 4},
	} {
		n, adj, vals := csrOf(g.s)
		for i, dp := range dpChosen(n, adj, vals, g.level) {
			if dp {
				t.Errorf("%s: row %d is handed to the DP", name, i)
			}
		}
		requireBitEqual(t, flows(g.s, g.level), exactRecursive(g.s, g.level), name)
	}

	// A clique beside a ring: the clique's rows go to the DP, the ring's
	// are enumerated, in one build.
	n, adj, vals := csrOf(cliqueBesideRing())
	for i, dp := range dpChosen(n, adj, vals, 29) {
		if dp != (i < 10) {
			t.Errorf("clique beside ring: row %d DP=%v", i, dp)
		}
	}
}

// routerGraph is one graph the router tests sweep at every level, over
// its first rows rows.
type routerGraph struct {
	name string
	n    int
	adj  [][]int32
	vals [][]float64
	rows int
}

// routerGraphs is every family the kernel tests build: uniform complete
// graphs of 3 to 16 principals (12 under -short); unequal, overdraft and
// stored-zero complete graphs, with and without stored zero diagonals; a
// complete block of 10 inside 80 principals; random dense graphs; rings;
// and blocks side by side, cliques beside rings and chains. A uniform
// complete graph's rows are one row up to relabelling, so past 10
// principals only row 0 is swept: the parent rule walks 2.5 M chains a
// row of K16 at full level.
func routerGraphs(short bool) []routerGraph {
	var gs []routerGraph
	add := func(name string, n int, adj [][]int32, vals [][]float64) {
		gs = append(gs, routerGraph{name, n, adj, vals, n})
	}
	addDense := func(name string, s [][]float64) {
		n, adj, vals := csrOf(s)
		add(name, n, adj, vals)
	}
	maxK := 16
	if short {
		maxK = 12
	}
	for k := 3; k <= maxK; k++ {
		addDense(fmt.Sprintf("K%d", k), complete(k, 0.05))
		if k > 10 {
			gs[len(gs)-1].rows = 1
		}
	}
	for _, v := range []struct {
		name  string
		build func(*rand.Rand, int) (int, [][]int32, [][]float64)
	}{
		{"unequal", weighted(0.3)},
		{"overdraft", weighted(1.7)},
		{"stored-zeros", storedZeros(false)},
		{"stored-zero-diagonal", storedZeros(true)},
	} {
		for k := 3; k <= 11; k++ {
			n, adj, vals := v.build(rand.New(rand.NewSource(int64(k))), k)
			add(fmt.Sprintf("%s K%d", v.name, k), n, adj, vals)
		}
	}
	addDense("block of 10 in 80", blockIn80())
	rng := rand.New(rand.NewSource(30))
	for _, n := range []int{9, 10, 11} {
		for _, density := range []float64{0.6, 0.9} {
			addDense(fmt.Sprintf("random n=%d density %.1f", n, density), randomGraph(rng, n, density))
		}
	}
	addDense("ring12", ring(12, 0.5))
	addDense("ring64", ring(64, 0.5))
	addDense("clique beside ring", cliqueBesideRing())
	// Five blocks of 8: cliques alternating with chains, each chain's
	// last principal sharing nothing, as a block of churn128 does.
	blocks := zeros(40)
	for b := 0; b < 5; b++ {
		for i := 8 * b; i < 8*b+8; i++ {
			for j := 8 * b; j < 8*b+8; j++ {
				if b%2 == 0 && i != j || b%2 == 1 && j == i+1 {
					blocks[i][j] = 0.1
				}
			}
		}
	}
	addDense("cliques and chains of 8", blocks)
	return gs
}

// blockIn80 is a complete block of 10 in a population of 80, with a
// sparse tail hanging off it so the block's rows reach past it.
func blockIn80() [][]float64 {
	const n, lo, hi = 80, 30, 40
	rng := rand.New(rand.NewSource(80))
	s := zeros(n)
	for i := lo; i < hi; i++ {
		for j := lo; j < hi; j++ {
			if i != j {
				s[i][j] = 0.02 + 0.2*rng.Float64()
			}
		}
	}
	s[5][lo], s[hi-1][70], s[70][71] = 0.5, 0.4, 0.3
	return s
}

// cliqueBesideRing is a clique of 10 beside a ring of 20.
func cliqueBesideRing() [][]float64 {
	s := zeros(30)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if i != j {
				s[i][j] = 0.1
			}
		}
	}
	for i := 10; i < 30; i++ {
		s[i][10+(i-9)%20] = 0.5
	}
	return s
}

// TestRouterIsTheParentRule holds the router to the rule it shortcuts on
// every family at every level:
//   - a row's chain floor never exceeds its chains, counted by the DFS up
//     to the DP's cost: the uncapped count's verdict, since the floor the
//     router computes is saturated one step past that cost, without
//     enumerating a K16 row's trillions of chains;
//   - every row the router sends to the DP is one the DFS capped at the
//     DP's cost would have abandoned;
//   - the build is the parent rule's bit for bit and charges the meter
//     the same steps, so the budget refuses exactly the same graphs.
//
// Levels run from 1 to 16 and then n-1: past 16, a row either reaches
// more principals than the DP takes, so the router never looks at it, or
// has reached its whole component and holds no chain longer than 15, so
// it is the same row as at n-1.
func TestRouterIsTheParentRule(t *testing.T) {
	routed, undecided, enumerated := 0, 0, 0
	for _, g := range routerGraphs(testing.Short()) {
		sc, rows := getScratch(g.n), rowsOf(g.adj, g.vals)
		for level := 1; level < g.n; level++ {
			if level > maxDPReach && level < g.n-1 {
				continue
			}
			label := fmt.Sprintf("%s level %d", g.name, level)
			for src := 0; src < g.rows; src++ {
				limit := sc.reach(rows, src, level)
				if limit == noCap {
					enumerated++
					continue
				}
				floor := chainFloor(sc.minOut, level, limit+1)
				over := sc.overCap(level, limit)
				// dpChosen's verdict, and the chains themselves when there
				// are no more than the cap; past it they are at least
				// limit+1, which no floor exceeds.
				chains, end := enumerate(sc, rows, src, level, limit)
				dp := end == dfsCapped
				if !dp && chains < floor {
					t.Fatalf("%s: row %d has %d chains, under its floor %d", label, src, chains, floor)
				}
				switch {
				case over && !dp:
					t.Fatalf("%s: row %d is routed to the DP but the capped DFS finishes it", label, src)
				case over:
					routed++
				case dp:
					undecided++
				default:
					enumerated++
				}
			}
			want, wantSteps := rowsBy(t, g.n, g.rows, level, parentRule(g.adj, g.vals))
			got, gotSteps := rowsBy(t, g.n, g.rows, level, servedRule(g.adj, g.vals))
			requireBitEqual(t, got, want, label+": routed build vs the parent rule")
			if gotSteps != wantSteps {
				t.Fatalf("%s: the routed build charged %d steps, the parent rule %d", label, gotSteps, wantSteps)
			}
		}
		scratchPool.Put(sc)
	}
	t.Logf("rows routed to the DP %d, capped by the DFS %d, enumerated %d", routed, undecided, enumerated)
	if routed == 0 || undecided == 0 || enumerated == 0 {
		t.Fatal("the families miss one of the router's three outcomes")
	}
}

// TestCompleteRowsSkipTheDFS pins the router where the serving path meets
// it: every row of a complete graph of 7 or more at full level — the
// paper's ten ISPs with equal shares, the bench's unequal ones, a stored
// zero diagonal — is sent to the DP by overCap, the one test exactRow
// makes before it would start the DFS, and exactRow heeds it: no K10 row
// enters the DFS at all. A complete graph of 6 is enumerated: its 325
// chains a row are under the DP's cost of 400.
func TestCompleteRowsSkipTheDFS(t *testing.T) {
	check := func(name string, n int, adj [][]int32, vals [][]float64, want bool) {
		t.Helper()
		sc, g := getScratch(n), rowsOf(adj, vals)
		defer scratchPool.Put(sc)
		for src := 0; src < n; src++ {
			if got := sc.overCap(n-1, sc.reach(g, src, n-1)); got != want {
				t.Fatalf("%s: row %d sent straight to the DP = %v, want %v", name, src, got, want)
			}
		}
	}
	n, adj, vals := csrOf(complete(10, 0.1))
	check("the paper's K10", n, adj, vals, true)
	n, adj, vals = csrOf(benchMatrix(10, 1))
	check("the bench's K10", n, adj, vals, true)
	n, adj, vals = storedZeros(true)(rand.New(rand.NewSource(10)), 10)
	check("K10 with stored zeros on and off the diagonal", n, adj, vals, true)
	for k := 3; k <= 16; k++ {
		n, adj, vals := csrOf(complete(k, 0.05))
		check(fmt.Sprintf("K%d", k), n, adj, vals, k >= 7)
	}

	// And exactRow acts on it: the DFS makes its frame stacks on first
	// use, so a fresh scratch that has summed every row of a K10 block
	// keeps none.
	s := zeros(70)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if i != j {
				s[i][j] = 0.1
			}
		}
	}
	n, adj, vals = csrOf(s)
	g := rowsOf(adj, vals)
	sc := &rowScratch{acc: make([]float64, n), mark: make([]bool, n), visited: make([]bool, n)}
	for src := 0; src < 10; src++ {
		if !sc.exactRow(g, src, n-1, nil) {
			t.Fatalf("row %d: unbudgeted exactRow refused", src)
		}
		sc.discard()
	}
	if sc.nodeStk != nil {
		t.Fatal("a row of the K10 block entered the DFS")
	}
}

// TestChainFloor pins the floor's arithmetic: it is the exact chain count
// of a complete graph at every level, and it saturates at its ceiling
// where the product would overflow.
func TestChainFloor(t *testing.T) {
	for k := 2; k <= 20; k++ {
		for level := 1; level < k; level++ {
			want, p := 0, 1
			for j := 0; j < level; j++ {
				p *= k - 1 - j
				want += p
			}
			if got := chainFloor(k-1, level, math.MaxInt); got != want {
				t.Fatalf("K%d level %d: floor %d, chains %d", k, level, got, want)
			}
			if got := chainFloor(k-1, level, want); got != want {
				t.Fatalf("K%d level %d: floor at a ceiling of its count is %d, want %d", k, level, got, want)
			}
		}
	}
	if got := chainFloor(60, 59, math.MaxInt); got != math.MaxInt {
		t.Fatalf("K61's floor is %d, want it saturated at MaxInt", got)
	}
	if got := chainFloor(0, 9, 100); got != 0 {
		t.Fatalf("a row with no out-edges has floor %d", got)
	}
}

// TestExactWorkersBitIdentical: a row is a pure function of its graph, so
// the worker count cannot show in the result, DP rows included.
func TestExactWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s := randomGraph(rng, 12, 1.0)
	want := workersT(s, 11, 1)
	for _, workers := range []int{2, 8} {
		requireBitEqual(t, workersT(s, 11, workers), want, "workers")
	}
	requireBitEqual(t, rowsT(newClosure(s, 11)), want, "Closure rows")
}

// TestUpdateEdgeAcrossKernelChoice edits a graph into and out of a
// clique, so the affected rows' kernel flips between the DFS and the DP,
// and holds every step to a from-scratch build bit for bit.
func TestUpdateEdgeAcrossKernelChoice(t *testing.T) {
	const n = 10
	s := complete(n, 0.1)
	rng := rand.New(rand.NewSource(4))
	for i := range s {
		for j := range s[i] {
			if i != j {
				s[i][j] = 0.05 + 0.1*rng.Float64()
			}
		}
	}
	c := newClosure(s, n-1)
	flips := 0
	set := func(i, j int, v float64) {
		t.Helper()
		_, adj, vals := csrOf(s)
		before := dpChosen(n, adj, vals, n-1)
		next, _, err := c.UpdateEdge(i, j, s[i][j], v)
		if err != nil {
			t.Fatalf("UpdateEdge(%d,%d,%v): %v", i, j, v, err)
		}
		s[i][j] = v
		_, adj, vals = csrOf(s)
		for r, dp := range dpChosen(n, adj, vals, n-1) {
			if dp != before[r] {
				flips++
			}
		}
		requireBitEqual(t, rowsT(next), rowsT(newClosure(s, n-1)), "delta vs rebuild")
		c = next
	}
	// Thin the clique until every row is enumerated, then fill it back.
	type edge struct{ i, j int }
	var cut []edge
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && (j-i+n)%n > 2 {
				cut = append(cut, edge{i, j})
			}
		}
	}
	rng.Shuffle(len(cut), func(a, b int) { cut[a], cut[b] = cut[b], cut[a] })
	for _, e := range cut {
		set(e.i, e.j, 0)
	}
	_, adj, vals := csrOf(s)
	for r, dp := range dpChosen(n, adj, vals, n-1) {
		if dp {
			t.Fatalf("row %d of the thinned graph still goes to the DP", r)
		}
	}
	for _, e := range cut {
		set(e.i, e.j, 0.05+0.1*rng.Float64())
	}
	if flips == 0 {
		t.Fatal("no row's kernel flipped; the test exercises nothing")
	}
}

// stepsCharged builds the exact closure rows on the given worker count
// under a counting meter and returns what the build charged.
func stepsCharged(n int, adj [][]int32, vals [][]float64, level, workers int) int64 {
	m := &meter{limit: math.MaxInt64}
	sparseRows(n, rowsOf(adj, vals), level, workers, m)
	return m.spent.Load()
}

// TestBuildChargesOneEnumeration counts what a K10 build charges: every
// row the capped DFS plus the DP's updates, at most twice the DP's cost
// bound — a fortieth of one enumeration of the graph's 9.86 M chains,
// which the parent walked twice.
func TestBuildChargesOneEnumeration(t *testing.T) {
	n, adj, vals := csrOf(complete(10, 0.1))
	sc := getScratch(n)
	bound := int64(sc.reach(rowsOf(adj, vals), 0, 9))
	scratchPool.Put(sc)
	got := stepsCharged(n, adj, vals, 9, 1)
	if got <= 10*bound || got > 2*10*bound {
		t.Fatalf("K10 build charged %d steps, want within (%d, %d]: the cap plus the DP's updates a row", got, 10*bound, 2*10*bound)
	}
	if got > 9_864_100/30 {
		t.Fatalf("K10 build charged %d steps: that is an enumeration, not a DP", got)
	}
	for _, workers := range []int{2, 8} {
		if w := stepsCharged(n, adj, vals, 9, workers); w != got {
			t.Fatalf("%d workers charged %d steps, one charged %d", workers, w, got)
		}
	}
	// A ring is charged its chains and nothing else.
	n, adj, vals = csrOf(ring(64, 0.5))
	if got := stepsCharged(n, adj, vals, 63, 2); got != 64*63 {
		t.Fatalf("ring64 charged %d steps, want %d", got, 64*63)
	}
}

// TestBudgetRefusalIsDeterministic puts the budget exactly at, and one
// step under, what a build charges: admitted and refused the same way on
// any worker count, because the total is a sum over rows.
func TestBudgetRefusalIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := randomGraph(rng, 11, 0.9)
	n, adj, vals := csrOf(s)
	cost := int(stepsCharged(n, adj, vals, 10, 1))
	for _, workers := range []int{1, 2, 8} {
		if _, ok := sparseRows(n, rowsOf(adj, vals), 10, workers, newMeter(cost)); !ok {
			t.Fatalf("%d workers: refused at its exact cost %d", workers, cost)
		}
		if _, ok := sparseRows(n, rowsOf(adj, vals), 10, workers, newMeter(cost-1)); ok {
			t.Fatalf("%d workers: admitted one step under its cost %d", workers, cost)
		}
	}
}

// TestBudgetAdmitsK14 pins what the serving budget (core's 50 M steps)
// admits and refuses: complete graphs of 14 and 15 are built, one of 16
// is past the DP's cost and one of 20 past its reach, and both are
// refused with ErrBudget.
func TestBudgetAdmitsK14(t *testing.T) {
	const serving = 50_000_000
	sizes := []int{14, 15, 16, 20}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, k := range sizes {
		const share = 0.07
		n, adj, vals := csrOf(complete(k, share))
		c, err := newClosureCSR(n, adj, vals, k-1, serving)
		if k > 15 {
			if !errors.Is(err, ErrBudget) || c != nil {
				t.Fatalf("K%d under the serving budget: closure %v, err %v; want ErrBudget", k, c != nil, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("K%d under the serving budget: %v", k, err)
		}
		// Every chain of the uniform clique weighs share^length: the
		// entries have a closed form the DP must land on.
		want, paths := 0.0, 1.0
		for l := 1; l < k; l++ {
			want += paths * math.Pow(share, float64(l))
			paths *= float64(k - 1 - l)
		}
		for _, got := range rowsT(c)[3][:3] {
			if !num.EqChainSum(got, want) {
				t.Fatalf("K%d entry %v, closed form %v", k, got, want)
			}
		}
	}
}

// TestRefusalLeavesReceiverUntouched: a refused update, on the delta path
// and on the blast fallback, returns no closure and leaves the receiver's
// rows, edges and sharing exactly as they were — and the scratch the
// abandoned kernels used is clean for the next build.
func TestRefusalLeavesReceiverUntouched(t *testing.T) {
	// Delta path: a chain feeding a clique of 10; an edit inside the
	// clique affects few rows of 40.
	const n = 40
	s := zeros(n)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if i != j {
				s[i][j] = 0.1
			}
		}
	}
	for i := 10; i+1 < n; i++ {
		s[i][i+1] = 0.5
	}
	for _, level := range []int{2, n - 1} { // level 2: delta; full: every clique row
		c := newClosure(s, level)
		before := rowsT(c)
		rows := make([]*float64, n)
		for i := range rows {
			if _, tv := c.FlowRow(i); len(tv) > 0 {
				rows[i] = &tv[0]
			}
		}
		// From a refusal on the first row's first chunk to one deep in a
		// later row (at level 2 a clique row is 81 chains).
		budgets := []int{1, 50, 500}
		if level > 2 {
			budgets = append(budgets, 5000, 100_000)
		}
		for _, budget := range budgets {
			d, changed, err := c.WithBudget(budget).UpdateEdge(0, 1, 0.1, 0.2)
			if !errors.Is(err, ErrBudget) || d != nil || changed != nil {
				t.Fatalf("level %d budget %d: UpdateEdge returned a closure %v, rows %v, err %v; want ErrBudget and nothing else", level, budget, d != nil, changed, err)
			}
		}
		requireBitEqual(t, rowsT(c), before, "receiver rows after refused updates")
		requireBitEqual(t, edgesOf(c), s, "receiver edges after refused updates")
		for i := range rows {
			if _, tv := c.FlowRow(i); len(tv) > 0 && &tv[0] != rows[i] {
				t.Fatalf("row %d of the receiver was replaced by a refused update", i)
			}
		}
		// The same scratch, after the abandoned rows, builds clean.
		requireBitEqual(t, rowsT(newClosure(s, level)), before, "rebuild after refusals")
		d, _, err := c.WithBudget(0).UpdateEdge(0, 1, 0.1, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		s[0][1] = 0.2
		requireBitEqual(t, rowsT(d), rowsT(newClosure(s, level)), "update once the budget is lifted")
		s[0][1] = 0.1
	}
}

// edgesOf reads c's agreement matrix back entry by entry through Edge.
func edgesOf(c *Closure) [][]float64 {
	out := zeros(c.N())
	for i := range out {
		for j := range out[i] {
			out[i][j] = c.Edge(i, j)
		}
	}
	return out
}
