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
// paper's K10 builds in ~0.2 ms, K14 in ~6 ms, on two cores). Denser or
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
		if err := validateRow(i, adj[i], vals[i]); err != nil {
			return err
		}
	}
	return nil
}

// validateRow checks agreement row i: a zero diagonal and non-negative
// entries.
func validateRow(i int, cols []int32, vals []float64) error {
	for k, j := range cols {
		if int(j) == i && !num.IsZero(vals[k]) {
			return fmt.Errorf("transitive: S[%d][%d] = %g, diagonal must be zero", i, i, vals[k])
		}
		if vals[k] < 0 {
			return fmt.Errorf("transitive: S[%d][%d] = %g, entries must be non-negative", i, j, vals[k])
		}
	}
	return nil
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

// rowScratch is one worker's state for the sparse row kernels: a dense
// accumulator with the list of columns written, so that one row of T
// costs its own chains and entries, never a pass over the population.
// Between rows acc is all zero and mark and visited all false (take, emit
// and discard restore that); the DP's arrays keep what the last row wrote.
// Scratch sets are pooled and handed out one per worker (forRows), so a
// build holds at most GOMAXPROCS of them.
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
	// expanded, the edges among them in local numbering — each head's
	// in-edge weights by tail, and every principal's in- and out-neighbour
	// sets — and the (visited set, end) table of the subset DP.
	reached []int32
	minOut  int
	dpW     [maxDPReach - 1][maxDPReach - 1]float64
	dpIn    [maxDPReach - 1]uint32
	dpOut   [maxDPReach - 1]uint32
	dp      []float64
	// The rows take has emitted and not yet handed on: a build's rows, in
	// the order this worker computed them, or a delta's one row.
	packCols []int32
	packVals []float64
	// Closure.affected's rows, which the kernels never touch: a delta
	// recomputes them with this same scratch.
	rows []int
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
// DFS steps and DP edge reads, a chunk at a time, from every worker.
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

// forRows runs fn(w, src) for every row src in [0, n) on one goroutine
// per scratch set, worker w holding scs[w] for all the rows it takes. A
// false return from fn stops every worker at its next row; forRows reports
// whether all rows ran.
func forRows(scs []*rowScratch, n int, fn func(w, src int) bool) bool {
	var next atomic.Int64
	var stopped atomic.Bool
	par.Do(len(scs), len(scs), func(w int) {
		for !stopped.Load() {
			src := int(next.Add(1)) - 1
			if src >= n {
				break
			}
			if !fn(w, src) {
				stopped.Store(true)
			}
		}
	})
	return !stopped.Load()
}

// take appends the accumulated row's entries that are not exactly zero to
// the scratch's pack, returns where they landed there, and clears the
// scratch for the next row.
func (sc *rowScratch) take() span {
	lo := len(sc.packCols)
	for _, j := range sc.touched {
		if v := sc.acc[j]; !num.IsZero(v) {
			sc.packCols, sc.packVals = append(sc.packCols, j), append(sc.packVals, v)
		}
	}
	sc.discard()
	return span{start: int32(lo), n: int32(len(sc.packCols) - lo)}
}

// matches compares the accumulated row with the row of columns cols and
// values vals: whether it stores the same columns, and whether also the
// same values.
func (sc *rowScratch) matches(cols []int32, vals []float64) (pattern, same bool) {
	x, same := 0, true
	for _, j := range sc.touched {
		v := sc.acc[j]
		if num.IsZero(v) {
			continue
		}
		if x == len(cols) || cols[x] != j {
			return false, false
		}
		same = same && num.IsZero(v-vals[x])
		x++
	}
	if x != len(cols) {
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

// discard drops the accumulated row, leaving the scratch clear.
func (sc *rowScratch) discard() {
	for _, j := range sc.touched {
		sc.acc[j], sc.mark[j] = 0, false
	}
	sc.touched = sc.touched[:0]
}

// sparseRows computes every row of T^(level) over the agreement rows g —
// the table a Closure stores — charging m. It reports false when the
// budget ran out. Each worker packs the rows it computes into its
// scratch's pack, which keeps its capacity in the pool from build to
// build; the table is then laid out in row order from the packs.
func sparseRows(n int, g *Table, level, workers int, m *meter) (Table, bool) {
	maxLen := clampLevel(level, n)
	scs := make([]*rowScratch, max(workers, 1))
	for w := range scs {
		scs[w] = getScratch(n)
		scs[w].packCols, scs[w].packVals = scs[w].packCols[:0], scs[w].packVals[:0]
	}
	type packed struct {
		w int32
		span
	}
	at := make([]packed, n)
	ok := forRows(scs, n, func(w, src int) bool {
		if !scs[w].exactRow(g, src, maxLen, m) {
			return false
		}
		at[src] = packed{w: int32(w), span: scs[w].take()}
		return true
	})
	var t Table
	if ok {
		t = Layout(n, 1, func(i int) int { return int(at[i].n) })
		for i, p := range at {
			cols, vals := t.Row(i)
			sc := scs[p.w]
			copy(cols, sc.packCols[p.start:])
			copy(vals, sc.packVals[p.start:])
		}
	}
	for _, sc := range scs {
		scratchPool.Put(sc)
	}
	return t, ok
}

// maxDPReach is the largest reach (source included) the subset DP takes
// on: its table holds (r-1)·2^(r-1) floats, 3.9 MB a worker at 16 and
// doubling with each principal after. It is sized by that table, not
// tuned: under the serving budget the DP's own cost already refuses a
// complete graph of 16. The DP's sets of principals are uint32 bitsets;
// the constant after it stops compiling once the reach outgrows them.
const maxDPReach = 16

const _ uint32 = 1<<(maxDPReach-1) - 1

// noCap is the DFS step cap of a row the DP cannot take.
const noCap = math.MaxInt

// exactRow accumulates row src of the exact T^(maxLen) into the scratch
// (maxLen already clamped); it reports false, with the scratch cleared,
// when the sum ran m out of budget. Two kernels sum
// the same chains: the DFS enumerates them, at a cost of one step per
// chain, and the DP adds them up by (visited set, end) state, each state
// gathered from the states one principal smaller, at a cost that depends
// on the reach r and the edges within it and not on how many chains there
// are (dpCost). The choice is a function of the row's
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
func (sc *rowScratch) exactRow(g *Table, src, maxLen int, m *meter) bool {
	limit := sc.reach(g, src, maxLen)
	if sc.overCap(maxLen, limit) {
		return m.charge(limit) && sc.exactRowDP(g, src, maxLen, m)
	}
	return sc.cappedRow(g, src, maxLen, limit, m)
}

// cappedRow enumerates row src by the DFS under the given step cap, and
// sums it by the DP instead if the DFS hits the cap.
func (sc *rowScratch) cappedRow(g *Table, src, maxLen, limit int, m *meter) bool {
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
func (sc *rowScratch) reach(g *Table, src, maxLen int) int {
	seen := sc.visited
	reached := append(sc.reached[:0], int32(src))
	seen[src] = true
	edges, lo, minOut := 0, 0, math.MaxInt
search:
	for depth := 0; depth < maxLen && lo < len(reached); depth++ {
		hi := len(reached)
		for _, u := range reached[lo:hi] {
			cols, _ := g.Row(int(u))
			out := len(cols)
			edges += out
			for _, y := range cols {
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
// the table's (r-1)·2^(r-1) cells is computed once, and an edge is read by
// the sum of every state whose visited set holds both its ends, a quarter
// of the 2^(r-1) sets — edges·2^(r-3) reads, which is exact for a complete
// graph at full level. The meter charges those reads from their tail's
// side: each non-zero state that may be extended is charged one step per
// out-edge to a principal outside its set.
func dpCost(r, edges int) int {
	return (4*(r-1) + edges) << r >> 3
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
func (sc *rowScratch) exactRowDFS(g *Table, src, maxLen int, st *steps) dfsEnd {
	if len(sc.nodeStk) < maxLen+1 {
		sc.nodeStk = make([]int32, maxLen+1)
		sc.idxStk = make([]int32, maxLen+1)
		sc.prodStk = make([]float64, maxLen+1)
	}
	row, mark, visited := sc.acc, sc.mark, sc.visited
	nodeStk, idxStk, prodStk := sc.nodeStk, sc.idxStk, sc.prodStk
	// A frame walks its node's out-edges by position in g's arenas (one
	// value per entry), idx up to end, so a step slices nothing.
	spans, edges, vrow := g.spans, g.cols, g.vals
	node, product, depth := int32(src), 1.0, 0
	idx, end := spans[src].start, spans[src].start+spans[src].n
	visited[src] = true
outer:
	for {
		if depth < maxLen {
			for idx < end {
				next := edges[idx]
				v := vrow[idx]
				idx++
				if visited[next] {
					continue
				}
				if st.n == st.stop {
					if stop := st.checkpoint(); stop != dfsDone {
						// Unwind: the chain so far is src, the suspended
						// frames' nodes, and node.
						visited[node] = false
						for _, u := range nodeStk[:depth] {
							visited[u] = false
						}
						return stop
					}
				}
				st.n++
				p := float64(product * v)
				row[next] += p
				if !mark[next] {
					mark[next] = true
					sc.touched = append(sc.touched, next)
				}
				visited[next] = true
				nodeStk[depth], idxStk[depth], prodStk[depth] = node, idx, product
				depth++
				node, product = next, p
				idx, end = spans[node].start, spans[node].start+spans[node].n
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
		end = spans[node].start + spans[node].n
	}
}

// exactRowDP sums the chains out of src by dynamic programming over the
// principals src reaches (sc.reached, at most maxDPReach), numbered
// 0..k-1 in ascending order without src. f[mask][e] is the summed weight
// of the chains from src that visit exactly the set mask and end at e: the
// sum, over e's in-neighbours u in mask∖e in ascending order, of
// f[mask∖e][u] times the weight of u→e, every product rounded on its own.
// States are computed masks ascending and ends ascending within a mask
// (Held–Karp order), so the states one principal smaller are complete
// before they are read, and each is added to the row as it is done. A
// state of maxLen principals is a chain of maxLen edges and is not
// extended; sets of more are skipped. Every cell a row reads it has
// written, so the table is never cleared. It reports false, with the
// scratch cleared, when the charges ran m out of budget.
func (sc *rowScratch) exactRowDP(g *Table, src, maxLen int, m *meter) bool {
	nodes := sc.reached[1:]
	slices.Sort(nodes)
	k := len(nodes)
	// The edges among the reach, by local number: w[h][t] weighs t→h, in[h]
	// holds t and out[t] holds h. An edge back to src is dropped.
	w, in, out := &sc.dpW, &sc.dpIn, &sc.dpOut
	clear(in[:k])
	for t, u := range nodes {
		out[t] = 0
		cols, vals := g.Row(int(u))
		for x, y := range cols {
			if h, ok := slices.BinarySearch(nodes, y); ok {
				out[t] |= 1 << h
				in[h] |= 1 << t
				w[h][t] = vals[x]
			}
		}
	}

	size := k << k
	if len(sc.dp) < size {
		sc.dp = make([]float64, size)
	}
	f, acc := sc.dp[:size], sc.acc
	for l := range k {
		f[k<<l+l] = 0
	}
	srcCols, srcVals := g.Row(src)
	for x, y := range srcCols {
		if l, ok := slices.BinarySearch(nodes, y); ok {
			f[k<<l+l] = srcVals[x]
		}
	}
	reads := len(srcCols)
	for mask := 1; mask < 1<<k; mask++ {
		length := bits.OnesCount(uint(mask))
		if length > maxLen {
			continue
		}
		base := mask * k
		extend := length < maxLen
		for rest := mask; rest != 0; rest &= rest - 1 {
			e := bits.TrailingZeros(uint(rest))
			v := f[base+e]
			if length > 1 {
				prev := mask &^ (1 << e)
				from, we := f[prev*k:prev*k+k], &w[e]
				v = 0
				for p := uint32(prev) & in[e]; p != 0; p &= p - 1 {
					u := bits.TrailingZeros32(p)
					v += float64(from[u] * we[u])
				}
				f[base+e] = v
			}
			if num.IsZero(v) {
				continue
			}
			acc[nodes[e]] += v
			if extend {
				reads += bits.OnesCount32(out[e] &^ uint32(mask))
			}
		}
		if reads >= meterChunk {
			if !m.charge(reads) {
				sc.touched = append(sc.touched, nodes...)
				sc.discard()
				return false
			}
			reads = 0
		}
	}
	sc.touched = append(sc.touched, nodes...)
	if !m.charge(reads) {
		sc.discard()
		return false
	}
	return true
}

// sourceCap returns U_ki = min(V_k·T_ki + A_ki, V_k) for k != i.
func sourceCap(v []float64, t, a [][]float64, k, i int) float64 {
	u := float64(v[k] * t[k][i])
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

// clampLevel clamps a requested level to [1, n-1], and to 1 when n <= 1.
func clampLevel(level, n int) int {
	return max(1, min(level, n-1))
}

func zeros(n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
	}
	return out
}
