package transitive

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/num"
)

// dfsRows computes T^(maxLen) with every row enumerated by the DFS, cap
// or no cap: the parent commit's kernel.
func dfsRows(n int, adj [][]int32, vals [][]float64, maxLen int) [][]float64 {
	maxLen = clampLevel(maxLen, n)
	t := zeros(n)
	sc := getScratch(n)
	for src := 0; src < n; src++ {
		st := newSteps(noCap, nil)
		if n <= 64 {
			exactRowSparse64(adj, vals, src, maxLen, t[src], &st)
		} else {
			sc.exactRowBig(adj, vals, src, maxLen, &st)
			sc.takeDense(t[src])
		}
	}
	scratchPool.Put(sc)
	return t
}

// dpRows computes T^(maxLen) with every row summed by the subset DP. The
// reach of every row must fit it.
func dpRows(t *testing.T, n int, adj [][]int32, vals [][]float64, maxLen int) [][]float64 {
	t.Helper()
	maxLen = clampLevel(maxLen, n)
	out := zeros(n)
	sc := getScratch(n)
	for src := 0; src < n; src++ {
		if sc.reach(adj, src, maxLen) == noCap {
			t.Fatalf("row %d reaches more than %d principals", src, maxDPReach)
		}
		if !sc.exactRowDP(adj, vals, src, maxLen, nil) {
			t.Fatalf("row %d: unbudgeted DP refused", src)
		}
		sc.takeDense(out[src])
	}
	scratchPool.Put(sc)
	return out
}

// dpChosen reports, per row, whether exactRow hands the row to the DP:
// the capped DFS runs out of steps.
func dpChosen(n int, adj [][]int32, vals [][]float64, maxLen int) []bool {
	maxLen = clampLevel(maxLen, n)
	out := make([]bool, n)
	sc := getScratch(n)
	for src := 0; src < n; src++ {
		st := newSteps(sc.reach(adj, src, maxLen), nil)
		var end dfsEnd
		if n <= 64 {
			_, end = exactRowSparse64(adj, vals, src, maxLen, make([]float64, n), &st)
		} else {
			end = sc.exactRowBig(adj, vals, src, maxLen, &st)
			sc.discard()
		}
		out[src] = end == dfsCapped
	}
	scratchPool.Put(sc)
	return out
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
// complete block of 10 inside a population past 64, where the DFS is the
// bool-slice variant.
func TestKernelsAgree(t *testing.T) {
	type variant struct {
		name  string
		build func(rng *rand.Rand, k int) (n int, adj [][]int32, vals [][]float64)
	}
	weighted := func(scale float64) func(*rand.Rand, int) (int, [][]int32, [][]float64) {
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
	variants := []variant{
		{"unequal", weighted(0.3)},
		{"overdraft", weighted(1.7)},
		{"stored-zeros", func(rng *rand.Rand, k int) (int, [][]int32, [][]float64) {
			// Every off-diagonal column is stored; a third hold 0.
			adj, vals := make([][]int32, k), make([][]float64, k)
			for i := 0; i < k; i++ {
				for j := 0; j < k; j++ {
					if i == j {
						continue
					}
					v := 0.0
					if rng.Intn(3) != 0 {
						v = 0.05 + 0.5*rng.Float64()
					}
					adj[i], vals[i] = append(adj[i], int32(j)), append(vals[i], v)
				}
			}
			return k, adj, vals
		}},
	}
	worst := 0.0
	for _, v := range variants {
		for k := 3; k <= 9; k++ {
			rng := rand.New(rand.NewSource(int64(k)))
			n, adj, vals := v.build(rng, k)
			dense := denseOf(n, adj, vals)
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
				got := ExactCSR(n, adj, vals, level)
				for i, useDP := range dpChosen(n, adj, vals, level) {
					want := dfs[i]
					if useDP {
						want = dp[i]
					}
					requireBitEqual(t, [][]float64{got[i]}, [][]float64{want}, label("ExactCSR row"))
				}
			}
		}
	}

	// A complete block of 10 in a population of 80, with a sparse tail
	// hanging off it so the block's rows reach past it.
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
	_, adj, vals := csrOf(s)
	for _, level := range []int{1, 2, 5, 8, 9, n - 1} {
		dfs := dfsRows(n, adj, vals, level)
		got := Exact(s, level)
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
		requireBitEqual(t, Exact(g.s, g.level), exactRecursive(g.s, g.level), name)
	}

	// A clique beside a ring: the clique's rows go to the DP, the ring's
	// are enumerated, in one build.
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
	n, adj, vals := csrOf(s)
	for i, dp := range dpChosen(n, adj, vals, 29) {
		if dp != (i < 10) {
			t.Errorf("clique beside ring: row %d DP=%v", i, dp)
		}
	}
}

// TestExactWorkersBitIdentical: a row is a pure function of its graph, so
// the worker count cannot show in the result, DP rows included.
func TestExactWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s := randomGraph(rng, 12, 1.0)
	want := exactWorkers(s, 11, 1)
	for _, workers := range []int{2, 8} {
		requireBitEqual(t, exactWorkers(s, 11, workers), want, "workers")
	}
	n, adj, vals := csrOf(s)
	requireBitEqual(t, ExactCSR(n, adj, vals, 11), want, "ExactCSR")
	requireBitEqual(t, NewClosure(s, 11, false).T(), want, "Closure rows")
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
	c := NewClosure(s, n-1, false)
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
		requireBitEqual(t, next.T(), NewClosure(s, n-1, false).T(), "delta vs rebuild")
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
	sparseRows(n, adj, vals, level, false, workers, m)
	return m.spent.Load()
}

// TestBuildChargesOneEnumeration counts what a K10 build charges: every
// row the capped DFS plus the DP's updates, at most twice the DP's cost
// bound — a fortieth of one enumeration of the graph's 9.86 M chains,
// which the parent walked twice.
func TestBuildChargesOneEnumeration(t *testing.T) {
	n, adj, vals := csrOf(complete(10, 0.1))
	sc := getScratch(n)
	bound := int64(sc.reach(adj, 0, 9))
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
		if _, _, ok := sparseRows(n, adj, vals, 10, false, workers, newMeter(cost)); !ok {
			t.Fatalf("%d workers: refused at its exact cost %d", workers, cost)
		}
		if _, _, ok := sparseRows(n, adj, vals, 10, false, workers, newMeter(cost-1)); ok {
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
		c, err := NewClosureBudget(n, adj, vals, k-1, false, serving)
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
		for _, got := range c.T()[3][:3] {
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
		c := NewClosure(s, level, false)
		before := c.T()
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
			row := append([]float64(nil), s[0]...)
			row[1] = 0.2
			if d, _, err := c.UpdateRow(0, row); !errors.Is(err, ErrBudget) || d != nil {
				t.Fatalf("level %d budget %d: UpdateRow returned a closure %v, err %v; want ErrBudget", level, budget, d != nil, err)
			}
		}
		requireBitEqual(t, c.T(), before, "receiver rows after refused updates")
		requireBitEqual(t, c.DenseS(), s, "receiver edges after refused updates")
		for i := range rows {
			if _, tv := c.FlowRow(i); len(tv) > 0 && &tv[0] != rows[i] {
				t.Fatalf("row %d of the receiver was replaced by a refused update", i)
			}
		}
		// The same scratch, after the abandoned rows, builds clean.
		requireBitEqual(t, NewClosure(s, level, false).T(), before, "rebuild after refusals")
		d, _, err := c.WithBudget(0).UpdateEdge(0, 1, 0.1, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		s[0][1] = 0.2
		requireBitEqual(t, d.T(), NewClosure(s, level, false).T(), "update once the budget is lifted")
		s[0][1] = 0.1
	}
}
