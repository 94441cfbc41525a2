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
// paper's K10 builds in ~0.4 ms, K14 in ~25 ms, on two cores). Denser or
// larger cliques are refused (ErrBudget) at the level asked for; a lower
// level bounds the chains and admits them. There is no other kernel: a
// sum over walks would count every cycle, and coefficients above the
// chains' would grant more than the agreements allow.
//
// S comes in row-sparse (NewClosureBudget takes an agreement.SparseMatrix)
// and T goes out the same way (FlowRow): a build costs the edges it reads. Section 3.2's overdraft capping
// K = min(T, 1) and the capacities C_i built on it are package core's,
// over these rows; the dense references the kernels and those formulas
// are checked against (RefTransitive, Cap, Capacities) are package
// modeltest's.
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

// validateCSR checks CSR agreement rows: n rows of matching column and
// value lists, a zero diagonal and non-negative entries. Row sums above 1
// are not refused: the paper's overdraft extension lifts that restriction
// and capping handles it.
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

// sparseRow is one row of a sparse matrix — S's out-edges of a principal or
// T's flow coefficients — as the ascending columns of its entries and their
// values. cols are never written once stored.
type sparseRow struct {
	cols []int32
	vals []float64
}

// rowsOf pairs CSR column and value lists into rows, sharing their slices.
func rowsOf(cols [][]int32, vals [][]float64) []sparseRow {
	g := make([]sparseRow, len(cols))
	for i := range g {
		g[i] = sparseRow{cols: cols[i], vals: vals[i]}
	}
	return g
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

// SetEntry sets column j of a sparse row (ascending cols, aligned vals)
// to v and returns the row. A value whose column stays stored is written
// over in place; an entry inserted or removed (exact zeros are unstored)
// lays out a new row and leaves the input as it was, so a column list
// never changes once stored.
func SetEntry(cols []int32, vals []float64, j int, v float64) ([]int32, []float64) {
	k := sort.Search(len(cols), func(k int) bool { return cols[k] >= int32(j) })
	present := k < len(cols) && cols[k] == int32(j)
	switch {
	case present && !num.IsZero(v):
		vals[k] = v
		return cols, vals
	case num.IsZero(v) && !present:
		return cols, vals
	case num.IsZero(v): // remove
		nc := make([]int32, 0, len(cols)-1)
		nv := make([]float64, 0, len(vals)-1)
		nc = append(append(nc, cols[:k]...), cols[k+1:]...)
		nv = append(append(nv, vals[:k]...), vals[k+1:]...)
		return nc, nv
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
// take, emit and discard restore that. Scratch sets are pooled
// and handed out one per worker (forRows), so a build holds at most
// GOMAXPROCS of them.
type rowScratch struct {
	acc     []float64 // row accumulator
	mark    []bool    // acc[j] was written this row
	touched []int32   // columns written, ascending once a kernel returns
	// Exact kernels: the reach pass's seen set, which is also the
	// DFS's visited set, and that DFS's suspended frames.
	visited []bool
	nodeStk []int32
	idxStk  []int32
	prodStk []float64
	// Exact kernels, reach of at most maxDPReach: the principals the
	// source reaches, the least out-degree among those the reach pass
	// expanded, the edges among them in local numbering, and the
	// (visited set, end) table of the subset DP.
	reached []int32
	minOut  int
	dpStart []int32
	dpEdges []dpEdge
	dp      []float64
	// Closure.affected's rows, which the kernels never touch: a delta
	// recomputes them with this same scratch. Of those, the rows that
	// changed, the column lists they held and their values back to back.
	rows    []int
	changed []int
	old     [][]int32
	oldVals []float64
}

var scratchPool = sync.Pool{New: func() any { return new(rowScratch) }}

// put returns sc to the pool, letting go of the replaced column lists.
func (sc *rowScratch) put() {
	clear(sc.old)
	scratchPool.Put(sc)
}

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

// take emits the accumulated row at exact size, holding every entry that
// is not exactly zero — nil slices for an empty row — and clears the
// scratch for the next row.
func (sc *rowScratch) take() sparseRow {
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
	return sparseRow{cols: cols, vals: vals}
}

// matches compares the accumulated row with row: whether it stores the
// same columns, and whether also the same values.
func (sc *rowScratch) matches(row sparseRow) (pattern, same bool) {
	x, same := 0, true
	for _, j := range sc.touched {
		v := sc.acc[j]
		if num.IsZero(v) {
			continue
		}
		if x == len(row.cols) || row.cols[x] != j {
			return false, false
		}
		same = same && num.IsZero(v-row.vals[x])
		x++
	}
	if x != len(row.cols) {
		return false, false
	}
	return true, same
}

// emit writes the accumulated row's values into vals, which has room for
// exactly its entries, and clears the scratch for the next row.
func (sc *rowScratch) emit(vals []float64) {
	x := 0
	for _, j := range sc.touched {
		if v := sc.acc[j]; !num.IsZero(v) {
			vals[x] = v
			x++
		}
	}
	sc.discard()
}

// note records that T's row i changed, and the columns and values it held.
func (sc *rowScratch) note(i int, held sparseRow) {
	sc.changed, sc.old, sc.oldVals = append(sc.changed, i), append(sc.old, held.cols), append(sc.oldVals, held.vals...)
}

// discard drops the accumulated row, leaving the scratch clear.
func (sc *rowScratch) discard() {
	for _, j := range sc.touched {
		sc.acc[j], sc.mark[j] = 0, false
	}
	sc.touched = sc.touched[:0]
}

// sparseRows computes every row of T^(level) over the agreement rows g —
// the form a Closure stores — charging m. It reports false when the budget
// ran out.
func sparseRows(n int, g []sparseRow, level, workers int, m *meter) ([]sparseRow, bool) {
	maxLen := clampLevel(level, n)
	t := make([]sparseRow, n)
	ok := forRows(n, workers, func(sc *rowScratch, src int) bool {
		if !sc.exactRow(g, src, maxLen, m) {
			return false
		}
		t[src] = sc.take()
		return true
	})
	return t, ok
}

// maxDPReach is the largest reach (source included) the subset DP takes
// on: its table holds (r-1)·2^(r-1) floats, 3.9 MB a worker at 16 and
// doubling with each principal after. It is sized by that table, not
// tuned: under the serving budget the DP's own cost already refuses a
// complete graph of 16.
const maxDPReach = 16

// noCap is the DFS step cap of a row the DP cannot take.
const noCap = math.MaxInt

// exactRow accumulates row src of the exact T^(maxLen) into the scratch
// (maxLen already clamped); it reports false, with the scratch cleared,
// when the sum ran m out of budget. Two kernels sum
// the same chains: the DFS enumerates them, at a cost of one step per
// chain, and the DP adds them up by (visited set, end) state, at a cost
// that depends on the reach r and the edges within it and not on how
// many chains there are (dpCost). The choice is a function of the row's
// graph alone: when the source reaches at most maxDPReach principals the
// row's kernel is the DP if it has more chains than the DP's cost (the
// cap), and the DFS otherwise. When the out-degrees alone prove the row
// is over the cap (overCap) it goes straight to the DP, charged the cap
// the DFS would have spent finding that out; every row of a complete
// graph of 7 or more at full level does (1956 chains a row against a
// cost of 1056). Any other row runs the DFS under the cap, and only if
// it hits the cap is the row cleared and summed by the DP, so such a row
// costs at most twice its cheaper kernel. Rings, chains, trees, low
// levels and anything sparse are enumerated. Every row the DFS finishes
// is bit-identical to plain enumeration, and a row recomputed after an
// edit equals the same row of a from-scratch build bit for bit. The two
// kernels add in different orders and agree to num.ChainSumTol.
//
// Everything that decides the choice — the reach, the cap, the degrees,
// the step count — reads only the out-edges of principals within
// maxLen-1 hops of src, which is exactly the set whose edits
// Closure.affected maps back to this row.
func (sc *rowScratch) exactRow(g []sparseRow, src, maxLen int, m *meter) bool {
	limit := sc.reach(g, src, maxLen)
	if sc.overCap(maxLen, limit) {
		return m.charge(limit) && sc.exactRowDP(g, src, maxLen, m)
	}
	return sc.cappedRow(g, src, maxLen, limit, m)
}

// cappedRow enumerates row src by the DFS under the given step cap, and
// sums it by the DP instead if the DFS hits the cap.
func (sc *rowScratch) cappedRow(g []sparseRow, src, maxLen, limit int, m *meter) bool {
	st := newSteps(limit, m)
	end := sc.exactRowDFS(g, src, maxLen, &st)
	slices.Sort(sc.touched)
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
	return sc.exactRowDP(g, src, maxLen, m)
}

// reach finds the principals within maxLen hops of src and returns the
// DFS step cap for the row: the DP's cost over that reach and the
// out-edges of the principals the search expanded (those nearer than
// maxLen hops; a principal maxLen hops out only ever ends a chain), or
// noCap once the reach passes maxDPReach. The search stops there, so it
// reads at most maxDPReach edge lists whatever the component's size.
// With a cap, sc.reached holds the reach, src first, and sc.minOut the
// least out-degree among the expanded principals, counted as the DFS
// counts steps: a stored zero-valued edge counts, a stored zero diagonal
// entry does not.
func (sc *rowScratch) reach(g []sparseRow, src, maxLen int) int {
	seen := sc.visited
	reached := append(sc.reached[:0], int32(src))
	seen[src] = true
	edges, lo, minOut := 0, 0, math.MaxInt
search:
	for depth := 0; depth < maxLen && lo < len(reached); depth++ {
		hi := len(reached)
		for _, u := range reached[lo:hi] {
			out := len(g[u].cols)
			edges += out
			for _, y := range g[u].cols {
				if seen[y] {
					if y == u {
						out--
					}
					continue
				}
				seen[y] = true
				reached = append(reached, y)
				if len(reached) > maxDPReach {
					break search
				}
			}
			minOut = min(minOut, out)
		}
		lo = hi
	}
	for _, y := range reached {
		seen[y] = false
	}
	sc.reached, sc.minOut = reached, minOut
	if len(reached) > maxDPReach {
		return noCap
	}
	return dpCost(len(reached), edges)
}

// overCap reports whether the row reach just measured provably has more
// chains than limit, its DP's cost: the capped DFS would stop at the cap.
// A chain's position j < maxLen is held by an expanded principal, which
// has at least minOut out-edges of which at most j lead back into the
// chain (a row lists each column once), so the row has at least
// chainFloor(minOut, maxLen, ·) chains.
func (sc *rowScratch) overCap(maxLen, limit int) bool {
	return limit != noCap && chainFloor(sc.minOut, maxLen, limit+1) > limit
}

// chainFloor returns Σ_{l=1..maxLen} Π_{j<l}(δ−j), the fewest chains of
// at most maxLen edges out of a source when every principal a chain
// leaves from has at least δ out-edges, saturated at ceiling. It is the
// exact count on a complete graph.
func chainFloor(delta, maxLen, ceiling int) int {
	sum, p := 0, 1
	for j := 0; j < maxLen && j < delta; j++ {
		if p > ceiling/(delta-j) {
			return ceiling
		}
		p *= delta - j
		if p >= ceiling-sum {
			return ceiling
		}
		sum += p
	}
	return sum
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

// exactRowDFS enumerates the chains out of src depth first, walking each
// principal's out-edges in column order, and adds every chain's product
// to the accumulator at its end. The visited set and the frame stacks
// live in the scratch; columns are recorded in touched on their first
// write, in the order the search reaches them.
func (sc *rowScratch) exactRowDFS(g []sparseRow, src, maxLen int, st *steps) dfsEnd {
	if len(sc.nodeStk) < maxLen+1 {
		sc.nodeStk = make([]int32, maxLen+1)
		sc.idxStk = make([]int32, maxLen+1)
		sc.prodStk = make([]float64, maxLen+1)
	}
	row, mark, visited := sc.acc, sc.mark, sc.visited
	nodeStk, idxStk, prodStk := sc.nodeStk, sc.idxStk, sc.prodStk
	node, idx, product, depth := int32(src), int32(0), 1.0, 0
	visited[src] = true
	edges, vrow := g[node].cols, g[node].vals
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
				edges, vrow = g[node].cols, g[node].vals
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
		edges, vrow = g[node].cols, g[node].vals
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
func (sc *rowScratch) exactRowDP(g []sparseRow, src, maxLen int, m *meter) bool {
	nodes := sc.reached[1:]
	slices.Sort(nodes)
	k := len(nodes)
	// The edges among the reach, by local number; an edge back to src
	// closes a cycle and is dropped.
	start, edges := sc.dpStart[:0], sc.dpEdges[:0]
	for _, u := range nodes {
		start = append(start, int32(len(edges)))
		for x, y := range g[u].cols {
			if l, ok := slices.BinarySearch(nodes, y); ok {
				edges = append(edges, dpEdge{bit: 1 << l, cell: k<<l + l, val: g[u].vals[x]})
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
	for x, y := range g[src].cols {
		if l, ok := slices.BinarySearch(nodes, y); ok {
			f[(k<<l)+l] = g[src].vals[x]
		}
	}
	updates := len(g[src].cols)
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

// CapacitiesInto computes C_i = V_i + Σ_{k≠i} U_ki over dense T and A (A
// may be nil) into dst (len(v) entries) without allocating: the U entries
// are accumulated on the fly instead of being materialized as a matrix.
// Only the layer benchmark, which times it, still calls it; core sums
// capacities over its sparse columns.
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
