// Package transitive computes the transitive availability of resources
// through chained sharing agreements (Section 3.1 of the paper).
//
// Given the relative agreement matrix S (S[i][j] = fraction of principal
// i's resources shared with j), the flow coefficient
//
//	T_ij^(m) = Σ over cycle-free chains i -> k1 -> ... -> j of length <= m
//	           of S[i][k1]·S[k1][k2]·...·S[k_{m-1}][j]
//
// determines the resource amount I_ij = V_i · T_ij that principal i's
// capacity contributes to principal j. The chain constraint (all nodes
// distinct) makes exact computation a sum over simple paths. Each row of
// T is computed by whichever of two exact kernels is cheaper for that
// row's graph (exactRow): a depth-first enumeration, whose cost is the
// number of chains, or a dynamic program over (visited set, end) states,
// whose cost grows as 2^r·edges for the r principals the source reaches.
// Sparse graphs of any size — rings, trees, many small communities —
// enumerate; a dense group is summed without enumerating, which admits
// complete graphs of up to 15 principals under the serving budget (the
// paper's K10 builds in ~2.5 ms, K14 in ~0.1 s). Denser or larger cliques
// are refused (ErrBudget). An Approx variant uses plain matrix powers, which
// overcounts cycles but scales polynomially; the two agree on cycle-free
// graphs and Approx is always an upper bound.
//
// The package also implements the two extensions of Section 3.2:
//
//   - overdraft capping K_ij = min(T_ij, 1), used when the Σ_k S_ik <= 1
//     restriction is lifted, so nobody can receive more than a source owns;
//   - the absolute-agreement cap U_ki = min(I_ki + A_ki, V_k) and the
//     resulting capacity C_i = V_i + Σ_{k≠i} U_ki.
package transitive

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/num"
	"repro/internal/par"
)

// Validate checks that S is a square agreement matrix with a zero
// diagonal and non-negative entries. It does NOT enforce row sums <= 1;
// the paper's overdraft extension deliberately lifts that restriction and
// capping handles it.
func Validate(s [][]float64) error {
	n := len(s)
	for i, row := range s {
		if len(row) != n {
			return fmt.Errorf("transitive: S is not square: row %d has %d entries, want %d", i, len(row), n)
		}
		if !num.IsZero(row[i]) {
			return fmt.Errorf("transitive: S[%d][%d] = %g, diagonal must be zero", i, i, row[i])
		}
		for j, v := range row {
			if v < 0 {
				return fmt.Errorf("transitive: S[%d][%d] = %g, entries must be non-negative", i, j, v)
			}
		}
	}
	return nil
}

// Exact computes the flow-coefficient matrix T^(maxLen) by enumerating
// every cycle-free agreement chain of at most maxLen edges. maxLen is the
// paper's "level of transitivity": 1 enforces only direct agreements, and
// n-1 is the full transitive closure. Values of maxLen < 1 or > n-1 are
// clamped. Exact panics if Validate(s) fails; validate untrusted input
// first.
//
// Rows are independent and are distributed over a pool of GOMAXPROCS
// workers; each is a pure function of its own graph (exactRow), so the
// result is bit-for-bit identical regardless of the worker count. Exact is
// the dense export of the row kernel a Closure is built with.
func Exact(s [][]float64, maxLen int) [][]float64 {
	return exactWorkers(s, maxLen, par.Workers(len(s)))
}

// exactWorkers is Exact with an explicit worker count (tests pin it to
// compare serial and parallel runs on any machine).
func exactWorkers(s [][]float64, maxLen, workers int) [][]float64 {
	if err := Validate(s); err != nil {
		panic(err)
	}
	adj, vals, _ := adjacency(s)
	return denseRows(len(s), adj, vals, maxLen, false, workers)
}

// ExactCSR is Exact over a CSR agreement matrix: adj holds each row's
// ascending non-zero column indices and vals the matching values. It is
// the dense export of the sparse row kernel a Closure is built with, and
// that kernel visits the same non-zero edges in the same ascending order
// as the dense scan, so the result is bit-identical to
// Exact(dense(adj, vals), maxLen). Rows may be nil (no out-edges).
// Diagonal or negative entries panic, mirroring Validate.
func ExactCSR(n int, adj [][]int32, vals [][]float64, maxLen int) [][]float64 {
	if err := validateCSR(n, adj, vals); err != nil {
		panic(err)
	}
	return denseRows(n, adj, vals, maxLen, false, par.Workers(n))
}

// validateCSR is Validate for CSR rows: square shape is implied, so only
// the zero diagonal and non-negative entries need checking.
func validateCSR(n int, adj [][]int32, vals [][]float64) error {
	if len(adj) != n || len(vals) != n {
		return fmt.Errorf("transitive: CSR has %d/%d rows, want %d", len(adj), len(vals), n)
	}
	for i := 0; i < n; i++ {
		if len(adj[i]) != len(vals[i]) {
			return fmt.Errorf("transitive: CSR row %d has %d cols but %d vals", i, len(adj[i]), len(vals[i]))
		}
		for k, j := range adj[i] {
			if int(j) == i && !num.IsZero(vals[i][k]) {
				return fmt.Errorf("transitive: S[%d][%d] = %g, diagonal must be zero", i, i, vals[i][k])
			}
			if vals[i][k] < 0 {
				return fmt.Errorf("transitive: S[%d][%d] = %g, entries must be non-negative", i, j, vals[i][k])
			}
		}
	}
	return nil
}

// adjacency returns, per node, the ascending list of non-zero out-edges
// with the matching edge values, plus the total edge count. The DFS
// iterates lists in index order, matching the dense j-loop order of the
// definition (zero entries contribute nothing).
func adjacency(s [][]float64) (adj [][]int32, vals [][]float64, edges int) {
	adj = make([][]int32, len(s))
	vals = make([][]float64, len(s))
	for i, row := range s {
		adj[i], vals[i] = RowOf(row)
		edges += len(adj[i])
	}
	return adj, vals, edges
}

// RowOf converts one dense row into its sparse form: ascending non-zero
// columns plus values.
func RowOf(row []float64) ([]int32, []float64) {
	var cols []int32
	var vals []float64
	for j, v := range row {
		if !num.IsZero(v) {
			cols = append(cols, int32(j))
			vals = append(vals, v)
		}
	}
	return cols, vals
}

// At returns entry j of a sparse row (ascending cols, aligned vals): a
// binary search, 0 when unstored.
func At(cols []int32, vals []float64, j int) float64 {
	k := sort.Search(len(cols), func(k int) bool { return cols[k] >= int32(j) })
	if k < len(cols) && cols[k] == int32(j) {
		return vals[k]
	}
	return 0
}

// SetEntry returns a sparse row (ascending cols, aligned vals) with
// column j set to v — inserted, replaced, or removed (exact zeros are
// unstored). The input slices are never modified: they stay shared with
// whoever else holds the row.
func SetEntry(cols []int32, vals []float64, j int, v float64) ([]int32, []float64) {
	k := sort.Search(len(cols), func(k int) bool { return cols[k] >= int32(j) })
	present := k < len(cols) && cols[k] == int32(j)
	switch {
	case num.IsZero(v) && !present:
		return cols, vals
	case num.IsZero(v): // remove
		nc := make([]int32, 0, len(cols)-1)
		nv := make([]float64, 0, len(vals)-1)
		nc = append(append(nc, cols[:k]...), cols[k+1:]...)
		nv = append(append(nv, vals[:k]...), vals[k+1:]...)
		return nc, nv
	case present: // replace: the columns are unchanged and stay shared
		nv := append([]float64(nil), vals...)
		nv[k] = v
		return cols, nv
	default: // insert at k
		nc := make([]int32, 0, len(cols)+1)
		nv := make([]float64, 0, len(vals)+1)
		nc = append(append(append(nc, cols[:k]...), int32(j)), cols[k:]...)
		nv = append(append(append(nv, vals[:k]...), v), vals[k:]...)
		return nc, nv
	}
}

// rowScratch is one worker's state for the sparse row kernels: a dense
// accumulator with the list of columns written, so that one row of T
// costs its own chains and entries, never a pass over the population.
// Between rows acc and dp are all zero and mark and visited all false;
// take, takeDense and discard restore that. Scratch sets are pooled and
// handed out one per worker (forRows), so a build holds at most
// GOMAXPROCS of them.
type rowScratch struct {
	acc     []float64 // row accumulator
	mark    []bool    // acc[j] was written this row (n > 64, and approx)
	touched []int32   // columns written, ascending once a kernel returns
	// Exact kernels: the reach pass's seen set, which is also the
	// visited set of the n > 64 DFS, and that DFS's suspended frames.
	visited []bool
	nodeStk []int32
	idxStk  []int32
	prodStk []float64
	// Exact kernels, reach of at most maxDPReach: the principals the
	// source reaches, the edges among them in local numbering, and the
	// (visited set, end) table of the subset DP.
	reached []int32
	dpStart []int32
	dpEdges []dpEdge
	dp      []float64
	// Approx kernel: the current and next power rows as dense values plus
	// their non-zero column lists.
	p, nx         []float64
	pCols, nxCols []int32
}

var scratchPool = sync.Pool{New: func() any { return new(rowScratch) }}

// getScratch returns a pooled scratch set sized for n principals.
func getScratch(n int) *rowScratch {
	sc := scratchPool.Get().(*rowScratch)
	if len(sc.acc) < n {
		*sc = rowScratch{acc: make([]float64, n), mark: make([]bool, n), visited: make([]bool, n)}
	}
	return sc
}

// meter is the one step budget a build or an update charges as it works:
// DFS steps and DP cell updates, a chunk at a time, from every worker.
// The total a finished build has charged is a sum over its rows of a
// function of each row's graph, so whether it passes the limit — and so
// whether the build is refused — does not depend on how rows were
// scheduled; only how early a refused build stops does. A nil meter
// charges nothing.
type meter struct {
	limit int64
	spent atomic.Int64
}

// meterChunk is how many steps a kernel takes between charges: large
// enough that the shared counter is off the hot path, small enough that
// a refused build overshoots its budget by a sliver.
const meterChunk = 1 << 14

// newMeter returns a meter refusing past budget steps, nil for no budget.
func newMeter(budget int) *meter {
	if budget <= 0 {
		return nil
	}
	return &meter{limit: int64(budget)}
}

// charge adds steps to the total and reports whether it is still within
// the limit.
func (m *meter) charge(steps int) bool {
	if m == nil {
		return true
	}
	return m.spent.Add(int64(steps)) <= m.limit
}

// budgetErr is the refusal every budgeted build and update returns.
func budgetErr(budget int) error {
	return fmt.Errorf("%w (budget %d)", ErrBudget, budget)
}

// forRows runs fn for every row in [0, n) on up to `workers` goroutines,
// each holding one scratch set for all the rows it takes. A false return
// from fn stops every worker at its next row; forRows reports whether
// all rows ran.
func forRows(n, workers int, fn func(sc *rowScratch, src int) bool) bool {
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var stopped atomic.Bool
	par.Do(workers, workers, func(int) {
		sc := getScratch(n)
		for !stopped.Load() {
			src := int(next.Add(1)) - 1
			if src >= n {
				break
			}
			if !fn(sc, src) {
				stopped.Store(true)
			}
		}
		scratchPool.Put(sc)
	})
	return !stopped.Load()
}

// row accumulates row src of T^(maxLen) into the scratch: the exact sum
// over chains, or the walk-counting approximation. maxLen is already
// clamped. It reports false, with the scratch cleared, when the exact
// sum ran m out of budget.
func (sc *rowScratch) row(adj [][]int32, vals [][]float64, src, maxLen int, approx bool, m *meter) bool {
	if approx {
		sc.approxRow(adj, vals, src, maxLen)
		return true
	}
	return sc.exactRow(adj, vals, src, maxLen, m)
}

// take emits the accumulated row as exact-size ascending (cols, vals)
// holding every entry that is not exactly zero — nil slices for an empty
// row — and clears the scratch for the next row.
func (sc *rowScratch) take() ([]int32, []float64) {
	nnz := 0
	for _, j := range sc.touched {
		if !num.IsZero(sc.acc[j]) {
			nnz++
		}
	}
	var cols []int32
	var vals []float64
	if nnz > 0 {
		cols, vals = make([]int32, 0, nnz), make([]float64, 0, nnz)
	}
	for _, j := range sc.touched {
		if v := sc.acc[j]; !num.IsZero(v) {
			cols, vals = append(cols, j), append(vals, v)
		}
	}
	sc.discard()
	return cols, vals
}

// takeDense scatters the accumulated row into an all-zero dense row and
// clears the scratch for the next row.
func (sc *rowScratch) takeDense(row []float64) {
	for _, j := range sc.touched {
		row[j] = sc.acc[j]
	}
	sc.discard()
}

// discard drops the accumulated row, leaving the scratch clear.
func (sc *rowScratch) discard() {
	for _, j := range sc.touched {
		sc.acc[j], sc.mark[j] = 0, false
	}
	sc.touched = sc.touched[:0]
}

// sparseRows computes every row of T^(level) as ascending non-zero
// (cols, vals) pairs — the form a Closure stores — charging m. It
// reports false when the budget ran out.
func sparseRows(n int, adj [][]int32, vals [][]float64, level int, approx bool, workers int, m *meter) ([][]int32, [][]float64, bool) {
	maxLen := clampLevel(level, n)
	tc, tv := make([][]int32, n), make([][]float64, n)
	ok := forRows(n, workers, func(sc *rowScratch, src int) bool {
		if !sc.row(adj, vals, src, maxLen, approx, m) {
			return false
		}
		tc[src], tv[src] = sc.take()
		return true
	})
	return tc, tv, ok
}

// denseRows is sparseRows scattered into a dense matrix, with no budget:
// the export behind Exact, ExactCSR and ApproxCSR.
func denseRows(n int, adj [][]int32, vals [][]float64, level int, approx bool, workers int) [][]float64 {
	maxLen := clampLevel(level, n)
	t := zeros(n)
	forRows(n, workers, func(sc *rowScratch, src int) bool {
		sc.row(adj, vals, src, maxLen, approx, nil)
		sc.takeDense(t[src])
		return true
	})
	return t
}

// maxDPReach is the largest reach (source included) the subset DP takes
// on: its table holds (r-1)·2^(r-1) floats, 3.9 MB a worker at 16 and
// doubling with each principal after. It is sized by that table, not
// tuned: under the serving budget the DP's own cost already refuses a
// complete graph of 16.
const maxDPReach = 16

// noCap is the DFS step cap of a row the DP cannot take.
const noCap = math.MaxInt

// exactRow accumulates row src of the exact T^(maxLen). Two kernels sum
// the same chains: the DFS enumerates them, at a cost of one step per
// chain, and the DP adds them up by (visited set, end) state, at a cost
// that depends on the reach r and the edges within it and not on how
// many chains there are (dpCost). The choice is a function of the row's
// graph alone: when the source reaches at most maxDPReach principals the
// DFS runs under a step cap equal to the DP's cost, and only when it
// hits the cap is the row cleared and summed by the DP. A complete graph
// at full level goes to the DP from 7 principals up (1956 chains a row
// against a cost of 1056); rings, chains, trees, low levels and anything
// sparse never do. So no row costs more than twice its cheaper kernel,
// every row the DFS finishes is bit-identical to plain enumeration, and
// a row recomputed after an edit equals the same row of a from-scratch
// build bit for bit. The two kernels add in different orders and agree
// to num.ChainSumTol.
//
// Everything that decides the choice — the reach, the cap, the step
// count — reads only the out-edges of principals within maxLen-1 hops of
// src, which is exactly the set whose edits Closure.affected maps back to
// this row.
func (sc *rowScratch) exactRow(adj [][]int32, vals [][]float64, src, maxLen int, m *meter) bool {
	st := newSteps(sc.reach(adj, src, maxLen), m)
	var end dfsEnd
	if len(adj) <= 64 {
		var reached uint64
		reached, end = exactRowSparse64(adj, vals, src, maxLen, sc.acc, &st)
		for ; reached != 0; reached &= reached - 1 {
			sc.touched = append(sc.touched, int32(bits.TrailingZeros64(reached)))
		}
	} else {
		end = sc.exactRowBig(adj, vals, src, maxLen, &st)
		slices.Sort(sc.touched)
	}
	if !st.settle() {
		end = dfsOverBudget
	}
	switch end {
	case dfsDone:
		return true
	case dfsOverBudget:
		sc.discard()
		return false
	}
	sc.discard()
	return sc.exactRowDP(adj, vals, src, maxLen, m)
}

// reach finds the principals within maxLen hops of src and returns the
// DFS step cap for the row: the DP's cost over that reach and the
// out-edges of the principals the search expanded (those nearer than
// maxLen hops; a principal maxLen hops out only ever ends a chain), or
// noCap once the reach passes maxDPReach. The search stops there, so it
// reads at most maxDPReach edge lists whatever the component's size.
// With a cap, sc.reached holds the reach, src first.
func (sc *rowScratch) reach(adj [][]int32, src, maxLen int) int {
	seen := sc.visited
	reached := append(sc.reached[:0], int32(src))
	seen[src] = true
	edges, lo := 0, 0
search:
	for depth := 0; depth < maxLen && lo < len(reached); depth++ {
		hi := len(reached)
		for _, u := range reached[lo:hi] {
			edges += len(adj[u])
			for _, y := range adj[u] {
				if seen[y] {
					continue
				}
				seen[y] = true
				reached = append(reached, y)
				if len(reached) > maxDPReach {
					break search
				}
			}
		}
		lo = hi
	}
	for _, y := range reached {
		seen[y] = false
	}
	sc.reached = reached
	if len(reached) > maxDPReach {
		return noCap
	}
	return dpCost(len(reached), edges)
}

// dpCost bounds the work of the subset DP over a reach of r principals
// (source included) with the given number of edges among them: each of
// the table's (r-1)·2^(r-1) cells is read once, and an edge updates a
// cell for every visited set that holds its tail and not its head, a
// quarter of the 2^(r-1) sets — edges·2^(r-3) updates, which is exact for
// a complete graph at full level.
func dpCost(r, edges int) int {
	return (4*(r-1) + edges) << r >> 3
}

// dpEdge is one edge among a DP row's reach, by its head's local number
// l: the head's bit in a visited set, and where the state (mask|bit, l)
// sits relative to mask's own cells, k<<l + l.
type dpEdge struct {
	bit, cell int
	val       float64
}

// dfsEnd is how an exact DFS stopped.
type dfsEnd int

const (
	dfsDone       dfsEnd = iota // every chain enumerated
	dfsCapped                   // the row has more chains than its cap
	dfsOverBudget               // the meter ran out
)

// steps counts one row's DFS steps against the row's cap and, a chunk at
// a time, against the build's meter. The DFS loops hold it by pointer and
// touch only n and stop between checkpoints.
type steps struct {
	n, stop, limit int
	charged        int
	m              *meter
}

// newSteps starts a row's count under the given cap.
func newSteps(limit int, m *meter) steps {
	return steps{limit: limit, stop: min(limit, meterChunk), m: m}
}

// checkpoint runs when n reaches stop, before the next step is taken: at
// the cap the row is over, otherwise the chunk is charged.
func (st *steps) checkpoint() dfsEnd {
	if st.n == st.limit {
		return dfsCapped
	}
	if !st.settle() {
		return dfsOverBudget
	}
	st.stop = min(st.limit, st.n+meterChunk)
	return dfsDone
}

// settle charges the steps taken since the last charge and reports
// whether the meter is still within its limit.
func (st *steps) settle() bool {
	ok := st.m.charge(st.n - st.charged)
	st.charged = st.n
	return ok
}

// exactRowSparse64 is the n <= 64 bitmask DFS walking adjacency lists,
// skipping zero edges entirely. Edge values come from the vals lists
// aligned with adj — the same floats a dense row lookup would read,
// multiplied in the same order. It returns the set of columns it added
// to, complete or not.
func exactRowSparse64(adj [][]int32, vals [][]float64, src, maxLen int, row []float64, st *steps) (reached uint64, end dfsEnd) {
	var (
		nodeStk [64]int32
		idxStk  [64]int32
		prodStk [64]float64
	)
	node, idx, product, depth := int32(src), int32(0), 1.0, 0
	visited := uint64(1) << src
	edges := adj[node]
	vrow := vals[node]
outer:
	for {
		if depth < maxLen {
			for int(idx) < len(edges) {
				next := edges[idx]
				v := vrow[idx]
				idx++
				if visited&(1<<next) != 0 {
					continue
				}
				if st.n == st.stop {
					if end := st.checkpoint(); end != dfsDone {
						return reached, end
					}
				}
				st.n++
				p := product * v
				row[next] += p
				visited |= 1 << next
				reached |= 1 << next
				nodeStk[depth], idxStk[depth], prodStk[depth] = node, idx, product
				depth++
				node, idx, product = next, 0, p
				edges, vrow = adj[node], vals[node]
				continue outer
			}
		}
		if depth == 0 {
			return reached, dfsDone
		}
		visited &^= 1 << node
		depth--
		node, idx, product = nodeStk[depth], idxStk[depth], prodStk[depth]
		edges, vrow = adj[node], vals[node]
	}
}

// exactRowBig is the bool-slice DFS for n > 64. The visited set and the
// frame stacks live in the scratch; columns are recorded in touched on
// their first write.
func (sc *rowScratch) exactRowBig(adj [][]int32, vals [][]float64, src, maxLen int, st *steps) dfsEnd {
	if len(sc.nodeStk) < maxLen+1 {
		sc.nodeStk = make([]int32, maxLen+1)
		sc.idxStk = make([]int32, maxLen+1)
		sc.prodStk = make([]float64, maxLen+1)
	}
	row, mark, visited := sc.acc, sc.mark, sc.visited
	nodeStk, idxStk, prodStk := sc.nodeStk, sc.idxStk, sc.prodStk
	node, idx, product, depth := int32(src), int32(0), 1.0, 0
	visited[src] = true
	edges := adj[node]
	vrow := vals[node]
outer:
	for {
		if depth < maxLen {
			for int(idx) < len(edges) {
				next := edges[idx]
				v := vrow[idx]
				idx++
				if visited[next] {
					continue
				}
				if st.n == st.stop {
					if end := st.checkpoint(); end != dfsDone {
						// Unwind: the chain so far is src, the suspended
						// frames' nodes, and node.
						visited[node] = false
						for _, u := range nodeStk[:depth] {
							visited[u] = false
						}
						return end
					}
				}
				st.n++
				p := product * v
				row[next] += p
				if !mark[next] {
					mark[next] = true
					sc.touched = append(sc.touched, next)
				}
				visited[next] = true
				nodeStk[depth], idxStk[depth], prodStk[depth] = node, idx, product
				depth++
				node, idx, product = next, 0, p
				edges, vrow = adj[node], vals[node]
				continue outer
			}
		}
		if depth == 0 {
			visited[src] = false
			return dfsDone
		}
		visited[node] = false
		depth--
		node, idx, product = nodeStk[depth], idxStk[depth], prodStk[depth]
		edges, vrow = adj[node], vals[node]
	}
}

// exactRowDP sums the chains out of src by dynamic programming over the
// principals src reaches (sc.reached, at most maxDPReach), numbered
// 0..k-1 in ascending order without src. f[mask][e] is the summed weight
// of the chains from src that visit exactly the set mask and end at e;
// each state is added to the row and pushed along e's out-edges into the
// states one principal larger, masks ascending and ends ascending within
// a mask (Held–Karp order), so a state is complete before it is read and
// every sum is taken in one fixed order. A state of maxLen principals is
// a chain of maxLen edges and is not extended. The table is zeroed as it
// is read, so it is clear again on return. It reports false, with the
// scratch cleared, when the updates ran m out of budget.
func (sc *rowScratch) exactRowDP(adj [][]int32, vals [][]float64, src, maxLen int, m *meter) bool {
	nodes := sc.reached[1:]
	slices.Sort(nodes)
	k := len(nodes)
	// The edges among the reach, by local number; an edge back to src
	// closes a cycle and is dropped.
	start, edges := sc.dpStart[:0], sc.dpEdges[:0]
	for _, u := range nodes {
		start = append(start, int32(len(edges)))
		for x, y := range adj[u] {
			if l, ok := slices.BinarySearch(nodes, y); ok {
				edges = append(edges, dpEdge{bit: 1 << l, cell: k<<l + l, val: vals[u][x]})
			}
		}
	}
	start = append(start, int32(len(edges)))
	sc.dpStart, sc.dpEdges = start, edges

	size := k << k
	if len(sc.dp) < size {
		sc.dp = make([]float64, size)
	}
	f, acc := sc.dp[:size], sc.acc
	for x, y := range adj[src] {
		if l, ok := slices.BinarySearch(nodes, y); ok {
			f[(k<<l)+l] = vals[src][x]
		}
	}
	updates := len(adj[src])
	for mask := 1; mask < 1<<k; mask++ {
		length := bits.OnesCount(uint(mask))
		if length > maxLen {
			continue
		}
		base := mask * k
		extend := length < maxLen
		for rest := mask; rest != 0; rest &= rest - 1 {
			e := bits.TrailingZeros(uint(rest))
			w := f[base+e]
			if num.IsZero(w) {
				continue
			}
			f[base+e] = 0
			acc[nodes[e]] += w
			if !extend {
				continue
			}
			for _, ed := range edges[start[e]:start[e+1]] {
				if mask&ed.bit == 0 {
					f[base+ed.cell] += w * ed.val
					updates++
				}
			}
		}
		if updates >= meterChunk {
			if !m.charge(updates) {
				clear(f[base:])
				for _, y := range nodes {
					acc[y] = 0
				}
				return false
			}
			updates = 0
		}
	}
	sc.touched = append(sc.touched, nodes...)
	if !m.charge(updates) {
		sc.discard()
		return false
	}
	return true
}

// approxRow accumulates row src of Σ_{k=1..maxLen} S^k. Row src of S^k
// depends only on row src of S^(k-1), so the row iterates a vector-matrix
// product over the non-zero entries of the current power row — in
// matmulInto's per-row operation order (ascending k, ascending j within
// each S row, the powers added in order), which makes the result
// bit-identical to Approx: every term skipped is an exact +0 added to a
// non-negative sum. Once a power row is empty so are all later ones, and
// the loop stops.
func (sc *rowScratch) approxRow(adj [][]int32, vals [][]float64, src, maxLen int) {
	if len(sc.p) < len(sc.acc) {
		sc.p, sc.nx = make([]float64, len(sc.acc)), make([]float64, len(sc.acc))
	}
	p, nx, pCols, nxCols := sc.p, sc.nx, sc.pCols[:0], sc.nxCols[:0]
	sum, mark := sc.acc, sc.mark
	pCols = append(pCols, adj[src]...)
	for k, j := range pCols {
		p[j] = vals[src][k]
	}
	for k := 1; ; k++ {
		for _, j := range pCols {
			sum[j] += p[j]
			if !mark[j] {
				mark[j] = true
				sc.touched = append(sc.touched, j)
			}
		}
		if k == maxLen || len(pCols) == 0 {
			break
		}
		// nx = p·S. A column joins nxCols on its first write; nx[j] is
		// still zero then unless the product underflowed, in which case
		// the column is listed twice and deduplicated below.
		nxCols = nxCols[:0]
		for _, kk := range pCols {
			aik := p[kk]
			if num.IsZero(aik) {
				continue
			}
			cols, vs := adj[kk], vals[kk]
			for idx, j := range cols {
				if num.IsZero(nx[j]) {
					nxCols = append(nxCols, j)
				}
				nx[j] += aik * vs[idx]
			}
		}
		for _, j := range pCols {
			p[j] = 0
		}
		slices.Sort(nxCols)
		nxCols = slices.Compact(nxCols)
		p, nx, pCols, nxCols = nx, p, nxCols, pCols
	}
	for _, j := range pCols {
		p[j] = 0
	}
	slices.Sort(sc.touched)
	sc.p, sc.nx, sc.pCols, sc.nxCols = p, nx, pCols, nxCols
}

// Approx computes Σ_{k=1..maxLen} S^k — the matrix-power approximation of
// T^(maxLen). It counts walks rather than simple paths, so on cyclic
// graphs it overcounts (it is an upper bound on Exact); on DAGs the two
// are identical. Cost is O(maxLen · n³), with each multiply parallelized
// over row blocks (rows are independent, so the result is bit-for-bit
// identical to a serial multiply). Approx panics if Validate(s) fails.
func Approx(s [][]float64, maxLen int) [][]float64 {
	return approxWorkers(s, maxLen, par.Workers(len(s)))
}

// approxWorkers is Approx with an explicit worker count (pinned by tests).
func approxWorkers(s [][]float64, maxLen, workers int) [][]float64 {
	if err := Validate(s); err != nil {
		panic(err)
	}
	n := len(s)
	maxLen = clampLevel(maxLen, n)
	sum := zeros(n)
	power := zeros(n)
	for i := range power {
		copy(power[i], s[i])
	}
	add(sum, power)
	next := zeros(n) // double buffer: matmul reads power, writes next
	for k := 2; k <= maxLen; k++ {
		matmulInto(next, power, s, workers)
		power, next = next, power
		add(sum, power)
	}
	return sum
}

// ApproxCSR is Approx over a CSR agreement matrix: the dense export of
// the sparse row kernel (approxRow). Skipping a zero column of S in the
// multiply drops only exact `+= aik·0` terms, so the result is
// bit-identical to Approx on the dense export.
func ApproxCSR(n int, adj [][]int32, vals [][]float64, maxLen int) [][]float64 {
	if err := validateCSR(n, adj, vals); err != nil {
		panic(err)
	}
	return denseRows(n, adj, vals, maxLen, true, par.Workers(n))
}

// Cap applies the overdraft rule of Section 3.2: K_ij = min(T_ij, 1). The
// input is not modified.
func Cap(t [][]float64) [][]float64 {
	out := zeros(len(t))
	for i, row := range t {
		for j, v := range row {
			if v > 1 {
				v = 1
			}
			out[i][j] = v
		}
	}
	return out
}

// Flows returns I[i][j] = V[i] · T[i][j], the amount of principal i's
// capacity available to principal j through chained agreements.
func Flows(v []float64, t [][]float64) [][]float64 {
	if len(v) != len(t) {
		panic(fmt.Sprintf("transitive: Flows: %d capacities for %d×%d T", len(v), len(t), len(t)))
	}
	out := zeros(len(t))
	for i, row := range t {
		for j, tij := range row {
			out[i][j] = v[i] * tij
		}
	}
	return out
}

// sourceCap returns U_ki = min(V_k·T_ki + A_ki, V_k) for k != i.
func sourceCap(v []float64, t, a [][]float64, k, i int) float64 {
	u := v[k] * t[k][i]
	if a != nil {
		u += a[k][i]
	}
	if u > v[k] {
		u = v[k]
	}
	return u
}

// Capacities returns C_i = V_i + Σ_{k≠i} U_ki: the total resource amount
// available to each principal, directly and transitively. A may be nil.
func Capacities(v []float64, t, a [][]float64) []float64 {
	out := make([]float64, len(v))
	CapacitiesInto(out, v, t, a)
	return out
}

// CapacitiesInto computes Capacities into dst (len(v) entries) without
// allocating: the U entries are accumulated on the fly instead of being
// materialized as a matrix. The summation order matches Capacities', so
// the results are bit-for-bit identical. It is the enforcement hot path's
// entry point — Plan recomputes capacities twice per request (before and
// after the candidate allocation).
func CapacitiesInto(dst, v []float64, t, a [][]float64) {
	n := len(v)
	if len(t) != n || (a != nil && len(a) != n) || len(dst) != n {
		panic(fmt.Sprintf("transitive: CapacitiesInto: inconsistent sizes dst=%d V=%d T=%d A=%d", len(dst), n, len(t), len(a)))
	}
	for i := 0; i < n; i++ {
		c := v[i]
		for k := 0; k < n; k++ {
			if k != i {
				c += sourceCap(v, t, a, k, i)
			}
		}
		dst[i] = c
	}
}

func clampLevel(level, n int) int {
	if level < 1 {
		return 1
	}
	if level > n-1 {
		if n <= 1 {
			return 1
		}
		return n - 1
	}
	return level
}

func zeros(n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
	}
	return out
}

func add(dst, src [][]float64) {
	for i := range dst {
		for j := range dst[i] {
			dst[i][j] += src[i][j]
		}
	}
}

// matmulInto computes out = a·b, distributing rows over the worker pool.
// Each out row depends only on one a row, so the parallel result is
// identical to a serial multiply. out must not alias a or b.
func matmulInto(out, a, b [][]float64, workers int) {
	n := len(a)
	par.Do(n, workers, func(i int) {
		row := out[i]
		for j := range row {
			row[j] = 0
		}
		for k := 0; k < n; k++ {
			aik := a[i][k]
			if num.IsZero(aik) {
				continue
			}
			bk := b[k]
			for j := 0; j < n; j++ {
				row[j] += aik * bk[j]
			}
		}
	})
}
