package transitive

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/num"
	"repro/internal/par"
)

// ErrBudget is wrapped by NewClosureBudget when building an exact
// closure, and by UpdateEdge/UpdateRow when recomputing the affected rows
// of one, charges more steps than the budget allows. Callers should treat
// the graph, or the mutation, as "too dense to enforce exactly".
var ErrBudget = errors.New("transitive: exact enumeration exceeds step budget")

// Closure maintains a flow-coefficient matrix T^(level) incrementally
// under single-edge and single-row agreement mutations. A full Exact (or
// Approx) recompute touches every source row; an edge change, however,
// can only alter the rows of principals that can reach the edge's source,
// so the delta path recomputes exactly those rows and shares the rest.
//
// The affected-set argument: a cycle-free chain out of row x uses edge
// (src,dst) only if the chain visits src first, i.e. x has a simple path
// to src of at most level-1 edges. The reverse breadth-first search in
// affected computes {x : dist(x→src) <= level-1}, a superset of every row
// whose chain set mentions the edge. The set itself is stable across the
// edit: any walk ending at src that traverses (src,dst) visited src
// before the edge, so its prefix is a shorter walk to src that avoids it
// — the edge can never change a shortest path TO its own source. The same
// argument covers Approx (walk counting) and whole-row updates (every
// edited edge leaves src).
//
// Recomputed rows run the same per-row kernel a full build runs
// (rowScratch.row), so an untouched-or-recomputed row is bit-for-bit
// identical to a from-scratch rebuild — pinned by the
// closure tests and the modeltest incremental-equivalence property.
//
// Everything is row-sparse: the agreement matrix S as per-row ascending
// column lists (adj) with aligned values (vals), and the flow matrix T the
// same way (tc, tv) — a row keeps exactly the entries that are not
// exactly zero. Between principals with no agreement chain T is zero, so
// a closure over many small communities costs O(n) row headers plus its
// stored entries, and every pass here (build, delta, compare, Grow) costs
// the entries it visits, never n². The kernels accumulate into a
// per-worker dense scratch row and emit exact-size rows; they read the
// same floats in the same order a dense scan would, and every sum is
// non-negative, so skipping an unstored +0 keeps each result
// bit-identical to the dense library functions (Exact, Approx). T() and
// DenseS() are dense exports for snapshots, tests and the bench; nothing
// on the serving path calls them.
//
// Closures are copy-on-write: mutators return a derived *Closure sharing
// every unchanged row slice with the receiver, which stays valid — the
// concurrency model the grm server needs, where in-flight solves hold a
// snapshot of the previous planner.
type Closure struct {
	// reqLevel is the level of transitivity as requested at construction,
	// before clamping; clamping is redone against the current n so a
	// full-transitivity closure (level >= n-1) stays full after Grow.
	reqLevel int
	approx   bool
	n        int
	tc       [][]int32   // ascending non-zero columns of each T row; shared COW
	tv       [][]float64 // flow coefficients aligned with tc; shared COW
	adj      [][]int32   // ascending non-zero out-edges per row; shared COW
	vals     [][]float64 // edge values aligned with adj; shared COW
	edges    int
	// budget caps the steps (DFS steps plus DP cell updates) one exact
	// build or delta may charge (0 = no cap); past it the build or the
	// mutation is abandoned with ErrBudget.
	budget int
}

// blastDenominator sets the delta fallback threshold: once an update's
// affected set covers more than 1/blastDenominator of the rows, the
// parallel full recompute is at least as cheap as the serial per-row
// delta and the Closure falls back to Exact/Approx wholesale.
const blastDenominator = 2

// NewClosure computes the full closure of s at the given level and wraps
// it in an incremental handle. Like Exact/Approx it panics if Validate(s)
// fails; validate untrusted input first. Level values beyond n-1 request
// full transitivity and keep requesting it as the closure grows.
func NewClosure(s [][]float64, level int, approx bool) *Closure {
	if err := Validate(s); err != nil {
		panic(err)
	}
	adj, vals, edges := adjacency(s)
	c, _ := newClosureFromRows(len(s), adj, vals, edges, level, approx, 0)
	return c
}

// NewClosureCSR is NewClosure over CSR rows: cols holds each row's
// ascending non-zero column indices, vals the matching values (rows may
// be nil). The closure keeps references to the rows; callers must treat
// them as immutable afterwards. Invalid input (diagonal or negative
// entries) panics, mirroring NewClosure.
func NewClosureCSR(n int, cols [][]int32, vals [][]float64, level int, approx bool) *Closure {
	c, _ := NewClosureBudget(n, cols, vals, level, approx, 0)
	return c
}

// NewClosureBudget is NewClosureCSR under a step budget: an exact build
// charges its DFS steps and DP cell updates as it works and is abandoned
// with ErrBudget once they pass budget (0 = no cap), so a refused graph
// costs about the budget, not its enumeration. The closure keeps the
// budget for its mutators (see WithBudget). Approx closures are
// polynomial and never refused.
func NewClosureBudget(n int, cols [][]int32, vals [][]float64, level int, approx bool, budget int) (*Closure, error) {
	if err := validateCSR(n, cols, vals); err != nil {
		panic(err)
	}
	edges := 0
	for _, row := range cols {
		edges += len(row)
	}
	return newClosureFromRows(n, cols, vals, edges, level, approx, budget)
}

func newClosureFromRows(n int, adj [][]int32, vals [][]float64, edges, level int, approx bool, budget int) (*Closure, error) {
	tc, tv, ok := sparseRows(n, adj, vals, level, approx, par.Workers(n), newMeter(budget))
	if !ok {
		return nil, budgetErr(budget)
	}
	return &Closure{reqLevel: level, approx: approx, n: n, tc: tc, tv: tv, adj: adj, vals: vals, edges: edges, budget: budget}, nil
}

// N returns the number of principals.
func (c *Closure) N() int { return c.n }

// Level returns the effective (clamped) level of transitivity.
func (c *Closure) Level() int { return clampLevel(c.reqLevel, c.n) }

// T materializes the current flow-coefficient matrix as fresh dense rows
// — the export for tests, snapshots and the dense library functions
// (Cap, Capacities); unstored entries come out as +0 exactly. It costs
// n² floats per call: the serving path reads FlowRow instead.
func (c *Closure) T() [][]float64 { return denseOf(c.n, c.tc, c.tv) }

// FlowRow returns row src of T as ascending non-zero column indices and
// their coefficients. The slices are shared with the closure and must be
// treated as read-only.
func (c *Closure) FlowRow(src int) ([]int32, []float64) {
	return c.tc[src], c.tv[src]
}

// Bytes returns the memory the closure's rows hold: 12 bytes per stored
// S and T entry plus four slice headers per principal. Rows shared with
// other closures are counted in full.
func (c *Closure) Bytes() int {
	entries := c.edges
	for _, row := range c.tc {
		entries += len(row)
	}
	return 12*entries + 4*24*c.n
}

// Edge returns the current agreement entry S[src][dst]: a binary search
// over row src's sorted column list, 0 when unstored.
func (c *Closure) Edge(src, dst int) float64 { return At(c.adj[src], c.vals[src], dst) }

// DenseS materializes the agreement matrix as dense rows — the export
// used by snapshots and tests; unstored entries come out as +0 exactly.
func (c *Closure) DenseS() [][]float64 { return denseOf(c.n, c.adj, c.vals) }

// denseOf scatters sparse rows into a fresh dense n×n matrix.
func denseOf(n int, cols [][]int32, vals [][]float64) [][]float64 {
	out := zeros(n)
	for i := range cols {
		for k, j := range cols[i] {
			out[i][j] = vals[i][k]
		}
	}
	return out
}

// WithBudget caps the steps an exact delta recompute may charge before
// giving up with ErrBudget (0 removes the cap). It returns the receiver
// for chaining at construction time; derived closures inherit the
// budget. A mutation that runs past it is abandoned and the receiver
// stays as it was.
func (c *Closure) WithBudget(steps int) *Closure {
	c.budget = steps
	return c
}

// shallow clones the slice headers so a derived closure can swap
// individual rows without touching the receiver.
func (c *Closure) shallow() *Closure {
	d := &Closure{reqLevel: c.reqLevel, approx: c.approx, n: c.n, edges: c.edges, budget: c.budget}
	d.tc = append([][]int32(nil), c.tc...)
	d.tv = append([][]float64(nil), c.tv...)
	d.adj = append([][]int32(nil), c.adj...)
	d.vals = append([][]float64(nil), c.vals...)
	return d
}

// UpdateEdge derives a closure with S[src][dst] changed from oldVal to
// newVal, recomputing only the affected rows. It returns the derived
// closure (the receiver is unchanged and stays valid) and the ascending
// list of rows whose T actually changed — rows recomputed to bit-identical
// values are reported as unchanged and keep their shared slices. oldVal
// must match the current entry; the mismatch error catches callers whose
// shadow copy of S has drifted from the closure's.
func (c *Closure) UpdateEdge(src, dst int, oldVal, newVal float64) (*Closure, []int, error) {
	n := c.n
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return nil, nil, fmt.Errorf("transitive: UpdateEdge(%d, %d): index out of range for n=%d", src, dst, n)
	}
	if src == dst {
		return nil, nil, fmt.Errorf("transitive: UpdateEdge(%d, %d): diagonal must stay zero", src, dst)
	}
	if newVal < 0 {
		return nil, nil, fmt.Errorf("transitive: UpdateEdge(%d, %d): value %g must be non-negative", src, dst, newVal)
	}
	cur := c.Edge(src, dst)
	if !num.IsZero(cur - oldVal) {
		return nil, nil, fmt.Errorf("transitive: UpdateEdge(%d, %d): stale old value %g, closure holds %g", src, dst, oldVal, cur)
	}
	if num.IsZero(oldVal - newVal) {
		return c, nil, nil
	}
	d := c.shallow()
	d.adj[src], d.vals[src] = SetEntry(c.adj[src], c.vals[src], dst, newVal)
	d.edges += len(d.adj[src]) - len(c.adj[src])
	changed, err := d.recompute(c, c.affected(src))
	if err != nil {
		return nil, nil, fmt.Errorf("transitive: UpdateEdge(%d, %d): %w", src, dst, err)
	}
	return d, changed, nil
}

// UpdateRow derives a closure with the whole out-edge row S[src]
// replaced. Validation matches Validate: the diagonal entry must be zero
// and every entry non-negative. The affected set is the same as a single
// edge update's — every edited edge leaves src.
func (c *Closure) UpdateRow(src int, row []float64) (*Closure, []int, error) {
	n := c.n
	if src < 0 || src >= n {
		return nil, nil, fmt.Errorf("transitive: UpdateRow(%d): index out of range for n=%d", src, n)
	}
	if len(row) != n {
		return nil, nil, fmt.Errorf("transitive: UpdateRow(%d): row has %d entries, want %d", src, len(row), n)
	}
	if !num.IsZero(row[src]) {
		return nil, nil, fmt.Errorf("transitive: UpdateRow(%d): diagonal entry %g must be zero", src, row[src])
	}
	cur := make([]float64, n)
	for k, j := range c.adj[src] {
		cur[j] = c.vals[src][k]
	}
	same := true
	for j, v := range row {
		if v < 0 {
			return nil, nil, fmt.Errorf("transitive: UpdateRow(%d): entry %d = %g must be non-negative", src, j, v)
		}
		if !num.IsZero(v - cur[j]) {
			same = false
		}
	}
	if same {
		return c, nil, nil
	}
	d := c.shallow()
	d.adj[src], d.vals[src] = RowOf(row)
	d.edges += len(d.adj[src]) - len(c.adj[src])
	changed, err := d.recompute(c, c.affected(src))
	if err != nil {
		return nil, nil, fmt.Errorf("transitive: UpdateRow(%d): %w", src, err)
	}
	return d, changed, nil
}

// Grow derives a closure extended by k principals with no agreements. A
// fresh principal has no edges, so no chain among the existing rows can
// use it: the exact closure is the old one with k empty rows — O(n) row
// headers copied, no entry touched, no enumeration. Approx closures
// recompute in the one corner case where growing raises the clamped level
// (a full-transitivity request on a cyclic graph gains longer walks).
func (c *Closure) Grow(k int) *Closure {
	if k <= 0 {
		return c
	}
	nn := c.n + k
	d := &Closure{reqLevel: c.reqLevel, approx: c.approx, n: nn, edges: c.edges, budget: c.budget}
	d.adj = make([][]int32, nn)
	copy(d.adj, c.adj)
	d.vals = make([][]float64, nn)
	copy(d.vals, c.vals)
	if c.approx && d.Level() != c.Level() {
		d.tc, d.tv, _ = sparseRows(nn, d.adj, d.vals, d.reqLevel, true, par.Workers(nn), nil)
		return d
	}
	d.tc = make([][]int32, nn)
	copy(d.tc, c.tc)
	d.tv = make([][]float64, nn)
	copy(d.tv, c.tv)
	return d
}

// hasEdge reports whether S[x][u] is stored (non-zero).
func (c *Closure) hasEdge(x, u int) bool {
	cols := c.adj[x]
	k := sort.Search(len(cols), func(k int) bool { return cols[k] >= int32(u) })
	return k < len(cols) && cols[k] == int32(u)
}

// affected returns, ascending, the rows whose chain enumeration can
// mention an edge out of src: src itself plus every row within reverse
// distance level-1 of src. The scan walks predecessors by a per-row
// binary search for the target column (S holds no reverse index); the
// cost is O(level · n · log deg · frontier) — negligible next to the
// recompute it prunes.
func (c *Closure) affected(src int) []int {
	n := c.n
	depth := c.Level() - 1
	seen := make([]bool, n)
	seen[src] = true
	out := []int{src}
	frontier := []int{src}
	for d := 0; d < depth && len(frontier) > 0; d++ {
		var next []int
		for _, u := range frontier {
			for x := 0; x < n; x++ {
				if !seen[x] && c.hasEdge(x, u) {
					seen[x] = true
					next = append(next, x)
					out = append(out, x)
				}
			}
		}
		frontier = next
	}
	sort.Ints(out)
	return out
}

// recompute refreshes the given rows of d's T against d's agreement
// rows, comparing each against prev's row: only rows that actually
// changed are replaced (and reported), so unchanged rows keep sharing
// memory with prev. Past the blast-radius threshold it abandons the delta
// and recomputes every row with the parallel full build. Either way the
// work is charged to d's budget as it is done, and ErrBudget abandons d.
func (d *Closure) recompute(prev *Closure, rows []int) ([]int, error) {
	n := d.n
	var m *meter
	if !d.approx {
		m = newMeter(d.budget)
	}
	var changed []int
	if blastDenominator*len(rows) > n {
		var ok bool
		d.tc, d.tv, ok = sparseRows(n, d.adj, d.vals, d.reqLevel, d.approx, par.Workers(n), m)
		if !ok {
			return nil, budgetErr(d.budget)
		}
		for i := 0; i < n; i++ {
			if rowsEqual(prev.tc[i], prev.tv[i], d.tc[i], d.tv[i]) {
				d.tc[i], d.tv[i] = prev.tc[i], prev.tv[i] // keep sharing the identical row
			} else {
				changed = append(changed, i)
			}
		}
		return changed, nil
	}
	maxLen := d.Level()
	sc := getScratch(n)
	defer scratchPool.Put(sc)
	for _, src := range rows {
		if !sc.row(d.adj, d.vals, src, maxLen, d.approx, m) {
			return nil, budgetErr(d.budget)
		}
		cols, vals := sc.take()
		if rowsEqual(prev.tc[src], prev.tv[src], cols, vals) {
			continue
		}
		d.tc[src], d.tv[src] = cols, vals
		changed = append(changed, src)
	}
	return changed, nil
}

// rowsEqual reports whether two sparse rows hold identical values. Rows
// store no exact zero, so a differing pattern is a differing value.
func rowsEqual(ac []int32, av []float64, bc []int32, bv []float64) bool {
	if len(ac) != len(bc) {
		return false
	}
	for k := range ac {
		if ac[k] != bc[k] || !num.IsZero(av[k]-bv[k]) {
			return false
		}
	}
	return true
}
