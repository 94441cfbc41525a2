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
// distinct) makes exact computation a simple-path enumeration, which this
// package performs by depth-first search — exact and fast for the paper's
// scales (n around 10–20). An Approx variant uses plain matrix powers,
// which overcounts cycles but scales polynomially; the two agree on
// cycle-free graphs and Approx is always an upper bound.
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
// The enumeration runs one iterative DFS per source row; rows are
// independent and are distributed over a pool of GOMAXPROCS workers. Each
// row is computed in exactly the order the serial DFS would use, so the
// result is bit-for-bit identical regardless of the worker count.
func Exact(s [][]float64, maxLen int) [][]float64 {
	return exactWorkers(s, maxLen, par.Workers(len(s)))
}

// exactWorkers is Exact with an explicit worker count (tests pin it to
// compare serial and parallel runs on any machine).
func exactWorkers(s [][]float64, maxLen, workers int) [][]float64 {
	if err := Validate(s); err != nil {
		panic(err)
	}
	n := len(s)
	adj, vals, edges := adjacency(s)
	// On dense graphs a straight 0..n-1 scan with a zero test beats the
	// adjacency indirection; on sparse graphs the edge lists skip the
	// zeros entirely. Either scan visits the same non-zero edges in the
	// same ascending order, so the choice never changes the result.
	if n <= 64 && 2*edges >= n*n {
		maxLen = clampLevel(maxLen, n)
		t := zeros(n)
		par.Do(n, workers, func(src int) {
			exactRowDense64(s, src, maxLen, t[src])
		})
		return t
	}
	return denseRows(n, adj, vals, maxLen, false, workers)
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
// Between rows acc is all zero and mark and visited all false; take and
// takeDense restore that. Scratch sets are pooled and handed out one per
// worker (forRows), so a build holds at most GOMAXPROCS of them.
type rowScratch struct {
	acc     []float64 // row accumulator
	mark    []bool    // acc[j] was written this row (n > 64, and approx)
	touched []int32   // columns written, ascending once a kernel returns
	// Exact kernel, n > 64: the visited set and the suspended DFS frames.
	visited []bool
	nodeStk []int32
	idxStk  []int32
	prodStk []float64
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
		*sc = rowScratch{acc: make([]float64, n), mark: make([]bool, n)}
	}
	return sc
}

// forRows runs fn for every row in [0, n) on up to `workers` goroutines,
// each holding one scratch set for all the rows it takes.
func forRows(n, workers int, fn func(sc *rowScratch, src int)) {
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	par.Do(workers, workers, func(int) {
		sc := getScratch(n)
		for {
			src := int(next.Add(1)) - 1
			if src >= n {
				break
			}
			fn(sc, src)
		}
		scratchPool.Put(sc)
	})
}

// row accumulates row src of T^(maxLen) into the scratch: exact chain
// enumeration, or the walk-counting approximation. maxLen is already
// clamped.
func (sc *rowScratch) row(adj [][]int32, vals [][]float64, src, maxLen int, approx bool) {
	switch {
	case approx:
		sc.approxRow(adj, vals, src, maxLen)
	case len(adj) <= 64:
		reached := exactRowSparse64(adj, vals, src, maxLen, sc.acc)
		for ; reached != 0; reached &= reached - 1 {
			sc.touched = append(sc.touched, int32(bits.TrailingZeros64(reached)))
		}
	default:
		sc.exactRowBig(adj, vals, src, maxLen)
		slices.Sort(sc.touched)
	}
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
		sc.acc[j], sc.mark[j] = 0, false
	}
	sc.touched = sc.touched[:0]
	return cols, vals
}

// takeDense scatters the accumulated row into an all-zero dense row and
// clears the scratch for the next row.
func (sc *rowScratch) takeDense(row []float64) {
	for _, j := range sc.touched {
		row[j] = sc.acc[j]
		sc.acc[j], sc.mark[j] = 0, false
	}
	sc.touched = sc.touched[:0]
}

// sparseRows computes every row of T^(level) as ascending non-zero
// (cols, vals) pairs — the form a Closure stores.
func sparseRows(n int, adj [][]int32, vals [][]float64, level int, approx bool, workers int) ([][]int32, [][]float64) {
	maxLen := clampLevel(level, n)
	tc, tv := make([][]int32, n), make([][]float64, n)
	forRows(n, workers, func(sc *rowScratch, src int) {
		sc.row(adj, vals, src, maxLen, approx)
		tc[src], tv[src] = sc.take()
	})
	return tc, tv
}

// denseRows is sparseRows scattered into a dense matrix: the export
// behind ExactCSR and ApproxCSR.
func denseRows(n int, adj [][]int32, vals [][]float64, level int, approx bool, workers int) [][]float64 {
	maxLen := clampLevel(level, n)
	t := zeros(n)
	forRows(n, workers, func(sc *rowScratch, src int) {
		sc.row(adj, vals, src, maxLen, approx)
		sc.takeDense(t[src])
	})
	return t
}

// exactRowDense64 is the n <= 64 bitmask variant scanning full matrix
// rows. depth counts edges already on the chain; the saved stacks hold
// the suspended ancestor frames.
func exactRowDense64(s [][]float64, src, maxLen int, row []float64) {
	n := int32(len(s))
	var (
		nodeStk [64]int32
		idxStk  [64]int32
		prodStk [64]float64
	)
	node, idx, product, depth := int32(src), int32(0), 1.0, 0
	visited := uint64(1) << src
	srow := s[node]
outer:
	for {
		if depth < maxLen {
			for idx < n {
				next := idx
				idx++
				if visited&(1<<next) != 0 || num.IsZero(srow[next]) {
					continue
				}
				p := product * srow[next]
				row[next] += p
				visited |= 1 << next
				nodeStk[depth], idxStk[depth], prodStk[depth] = node, idx, product
				depth++
				node, idx, product = next, 0, p
				srow = s[node]
				continue outer
			}
		}
		if depth == 0 {
			return
		}
		visited &^= 1 << node
		depth--
		node, idx, product = nodeStk[depth], idxStk[depth], prodStk[depth]
		srow = s[node]
	}
}

// exactRowSparse64 is the n <= 64 bitmask variant walking adjacency
// lists, skipping zero edges entirely. Edge values come from the vals
// lists aligned with adj — the same floats a dense row lookup would
// read, multiplied in the same order. It returns the set of columns it
// added to.
func exactRowSparse64(adj [][]int32, vals [][]float64, src, maxLen int, row []float64) (reached uint64) {
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
			return reached
		}
		visited &^= 1 << node
		depth--
		node, idx, product = nodeStk[depth], idxStk[depth], prodStk[depth]
		edges, vrow = adj[node], vals[node]
	}
}

// exactRowBig is the bool-slice variant for n > 64 (adjacency walk; a
// dense graph that large is out of Exact's reach anyway). The visited set
// and the frame stacks live in the scratch; columns are recorded in
// touched on their first write.
func (sc *rowScratch) exactRowBig(adj [][]int32, vals [][]float64, src, maxLen int) {
	if len(sc.visited) < len(sc.acc) {
		sc.visited = make([]bool, len(sc.acc))
	}
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
			return
		}
		visited[node] = false
		depth--
		node, idx, product = nodeStk[depth], idxStk[depth], prodStk[depth]
		edges, vrow = adj[node], vals[node]
	}
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

// WithinBudget reports whether exact enumeration of cycle-free chains up
// to maxLen would perform at most `budget` DFS steps. It runs the same
// traversal as Exact but only counts, aborting as soon as the budget is
// exceeded, so the count's cost is bounded by the budget. Callers use it
// to fail fast (suggesting Approx) instead of launching an astronomically
// exponential enumeration on a dense graph.
func WithinBudget(s [][]float64, maxLen int, budget int) bool {
	if err := Validate(s); err != nil {
		panic(err)
	}
	adj, vals, _ := adjacency(s)
	return withinBudget(adj, vals, nil, clampLevel(maxLen, len(s)), budget)
}

// WithinBudgetCSR is WithinBudget over CSR rows (ascending columns with
// aligned values): the same counting DFS, visiting the same nonzero
// edges in the same order as the dense scan.
func WithinBudgetCSR(n int, adj [][]int32, vals [][]float64, maxLen int, budget int) bool {
	if err := validateCSR(n, adj, vals); err != nil {
		panic(err)
	}
	return withinBudget(adj, vals, nil, clampLevel(maxLen, n), budget)
}

// withinBudget counts the DFS steps exact enumeration out of the given
// source rows (nil: every row) takes, and reports whether they fit the
// budget.
func withinBudget(adj [][]int32, vals [][]float64, rows []int, maxLen, budget int) bool {
	visited := make([]bool, len(adj))
	steps := 0
	var dfs func(cur, depth int) bool
	dfs = func(cur, depth int) bool {
		if depth == maxLen {
			return true
		}
		row, vrow := adj[cur], vals[cur]
		for x, next := range row {
			if visited[next] || num.IsZero(vrow[x]) {
				continue
			}
			steps++
			if steps > budget {
				return false
			}
			visited[next] = true
			ok := dfs(int(next), depth+1)
			visited[next] = false
			if !ok {
				return false
			}
		}
		return true
	}
	count := len(rows)
	if rows == nil {
		count = len(adj)
	}
	for x := 0; x < count; x++ {
		src := x
		if rows != nil {
			src = rows[x]
		}
		visited[src] = true
		ok := dfs(src, 0)
		visited[src] = false
		if !ok {
			return false
		}
	}
	return true
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
