package transitive

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/agreement"
	"repro/internal/num"
	"repro/internal/par"
)

// ErrBudget is wrapped by NewClosureBudget when building an exact
// closure, and by PatchEdge when recomputing the affected rows of one,
// charges more steps than the budget allows. Callers should treat the
// graph, or the mutation, as "too dense to enforce exactly".
var ErrBudget = errors.New("transitive: exact enumeration exceeds step budget")

// Closure maintains a flow-coefficient matrix T^(level) incrementally
// under single-edge agreement mutations. A full build touches every
// source row; an edge change, however, can only alter the rows of
// principals that can reach the edge's source, so the delta path
// recomputes exactly those rows and keeps the rest.
//
// The affected-set argument: a cycle-free chain out of row x uses edge
// (src,dst) only if the chain visits src first, i.e. x has a simple path
// to src of at most level-1 edges. The reverse breadth-first search in
// affected computes {x : dist(x→src) <= level-1}, a superset of every row
// whose chain set mentions the edge. The set itself is stable across the
// edit: any walk ending at src that traverses (src,dst) visited src
// before the edge, so its prefix is a shorter walk to src that avoids it
// — the edge can never change a shortest path TO its own source.
//
// Recomputed rows run the same per-row kernel a full build runs
// (rowScratch.exactRow), so an untouched-or-recomputed row is bit-for-bit
// identical to a from-scratch rebuild — pinned by the
// closure tests and the modeltest incremental-equivalence property.
//
// Everything is row-sparse: the agreement matrix S and the flow matrix T
// are each one table of rows, a row the ascending columns of exactly the
// entries that are not exactly zero, with their values. Between principals
// with no agreement chain T is zero, so a closure over many small
// communities costs O(n) row headers plus its stored entries, and every
// pass here (build, delta, compare, Grow) costs the entries it visits,
// never n². The kernels accumulate into a per-worker dense scratch row and
// emit exact-size rows; they read the same floats in the same order a
// dense scan would, and every sum is non-negative, so skipping an unstored
// +0 keeps each result bit-identical to the dense references in package
// modeltest (RefTransitive's chain enumeration).
// The package takes and returns no dense matrix but for T() and
// CapacitiesInto, kept for the layer benchmark; nothing on the serving path
// calls them.
//
// A Closure has one owner, which writes it under the lock it reads it
// under: the grm server plans and patches its planner under one state
// lock. It owns every row it holds — the constructors copy their input —
// so PatchEdge writes a value whose column stays stored in place, and lays
// out a new row only where an entry appears or vanishes. A row's column
// list never changes once it is stored: later readers alias it.
type Closure struct {
	// reqLevel is the level of transitivity as requested at construction,
	// before clamping; clamping is redone against the current n so a
	// full-transitivity closure (level >= n-1) stays full after Grow.
	reqLevel int
	n        int
	t        []sparseRow // T's rows
	s        []sparseRow // S's rows, the out-edges of each principal
	edges    int
	// budget caps the steps (DFS steps plus DP cell updates) one exact
	// build or delta may charge (0 = no cap); past it the build or the
	// mutation is abandoned with ErrBudget.
	budget int
}

// blastDenominator sets the delta fallback threshold: once an update's
// affected set covers more than 1/blastDenominator of the rows, the
// parallel full recompute is at least as cheap as the serial per-row
// delta and the Closure falls back to a full build.
const blastDenominator = 2

// NewClosureCSR is newClosureCSR with no budget. Only the layer
// benchmark, which times it, still calls it. approx is a compile shim for
// that benchmark, which passes core's Approx field and never sets it: the
// walk kernel it once selected is gone, so true panics.
func NewClosureCSR(n int, cols [][]int32, vals [][]float64, level int, approx bool) *Closure {
	if approx {
		panic("transitive: NewClosureCSR: the walk approximation is gone; closures are exact")
	}
	c, _ := newClosureCSR(n, cols, vals, level, 0)
	return c
}

// NewClosureBudget computes the full closure of the agreement matrix S at
// the given level and wraps it in an incremental handle; the closure
// copies S's rows. S with a diagonal or negative entry panics; validate
// untrusted input first. Level values beyond n-1 request full
// transitivity and keep requesting it as the closure grows. An exact
// build charges its DFS steps and DP cell updates as it works and is
// abandoned with ErrBudget once they pass budget (0 = no cap), so a
// refused graph costs about the budget, not its enumeration. The closure
// keeps the budget for PatchEdge (see WithBudget).
func NewClosureBudget(s *agreement.SparseMatrix, level, budget int) (*Closure, error) {
	cols, vals := make([][]int32, s.N()), make([][]float64, s.N())
	for i := range cols {
		cols[i], vals[i] = s.Row(i)
	}
	return newClosureCSR(s.N(), cols, vals, level, budget)
}

// newClosureCSR is NewClosureBudget over raw CSR rows: cols holds each
// row's ascending column indices, vals the matching values (rows may be
// nil, and may store zeros).
func newClosureCSR(n int, cols [][]int32, vals [][]float64, level, budget int) (*Closure, error) {
	if err := validateCSR(n, cols, vals); err != nil {
		panic(err)
	}
	g, edges := own(rowsOf(cols, vals))
	t, ok := sparseRows(n, g, level, par.Workers(n), newMeter(budget))
	if !ok {
		return nil, budgetErr(budget)
	}
	return &Closure{reqLevel: level, n: n, t: t, s: g, edges: edges, budget: budget}, nil
}

// own copies the columns and values of every row into one int32 and one
// float64 arena, in place in rows, each row capped at its length so none
// grows into the next, and returns them with their entry count.
func own(rows []sparseRow) ([]sparseRow, int) {
	size := 0
	for _, row := range rows {
		size += len(row.cols)
	}
	cols, vals := make([]int32, 0, size), make([]float64, 0, size)
	for i, row := range rows {
		lo := len(cols)
		cols, vals = append(cols, row.cols...), append(vals, row.vals...)
		rows[i] = sparseRow{cols: cols[lo:len(cols):len(cols)], vals: vals[lo:len(vals):len(vals)]}
	}
	return rows, size
}

// N returns the number of principals.
func (c *Closure) N() int { return c.n }

// Level returns the effective (clamped) level of transitivity.
func (c *Closure) Level() int { return clampLevel(c.reqLevel, c.n) }

// T materializes the current flow-coefficient matrix as fresh dense rows
// — the export for the layer benchmark; unstored entries come out as +0
// exactly. It costs n² floats per call: everything else reads FlowRow.
func (c *Closure) T() [][]float64 { return denseOf(c.n, c.t) }

// FlowRow returns row src of T as ascending non-zero column indices and
// their coefficients. The slices are shared with the closure and must be
// treated as read-only.
func (c *Closure) FlowRow(src int) ([]int32, []float64) {
	return c.t[src].cols, c.t[src].vals
}

// Bytes returns the memory the closure's rows hold: 12 bytes per stored
// S and T entry plus an S and a T row per principal, two slice headers
// each.
func (c *Closure) Bytes() int {
	entries := c.edges
	for _, row := range c.t {
		entries += len(row.cols)
	}
	return 12*entries + 2*2*24*c.n
}

// Edge returns the current agreement entry S[src][dst]: a binary search
// over row src's sorted column list, 0 when unstored.
func (c *Closure) Edge(src, dst int) float64 { return At(c.s[src].cols, c.s[src].vals, dst) }

// denseOf scatters sparse rows into a fresh dense n×n matrix.
func denseOf(n int, g []sparseRow) [][]float64 {
	out := zeros(n)
	for i, row := range g {
		for k, j := range row.cols {
			out[i][j] = row.vals[k]
		}
	}
	return out
}

// WithBudget caps the steps an exact delta recompute may charge before
// giving up with ErrBudget (0 removes the cap). It returns the receiver
// for chaining at construction time; a Clone inherits the budget. A
// PatchEdge that runs past it leaves its receiver partly patched, to
// discard.
func (c *Closure) WithBudget(steps int) *Closure {
	c.budget = steps
	return c
}

// Clone returns a copy of c that owns every row, so a patch of either
// leaves the other as it was.
func (c *Closure) Clone() *Closure {
	d := *c
	d.s, _ = own(slices.Clone(c.s))
	d.t, _ = own(slices.Clone(c.t))
	return &d
}

// checkEdge validates an edit of S[src][dst] from oldVal to newVal.
func (c *Closure) checkEdge(src, dst int, oldVal, newVal float64) error {
	n := c.n
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return fmt.Errorf("index out of range for n=%d", n)
	}
	if src == dst {
		return errors.New("diagonal must stay zero")
	}
	if newVal < 0 {
		return fmt.Errorf("value %g must be non-negative", newVal)
	}
	if cur := c.Edge(src, dst); !num.IsZero(cur - oldVal) {
		return fmt.Errorf("stale old value %g, closure holds %g", oldVal, cur)
	}
	return nil
}

// UpdateEdge is PatchEdge on a Clone, for a caller that keeps the
// receiver, which stays as it was: it returns the patched copy and the
// ascending T rows that changed. Only the layer benchmark, which times
// it, still calls it.
func (c *Closure) UpdateEdge(src, dst int, oldVal, newVal float64) (*Closure, []int, error) {
	d := c.Clone()
	changed, _, _, err := d.PatchEdge(src, dst, oldVal, newVal, nil, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	return d, changed, nil
}

// PatchEdge changes S[src][dst] from oldVal to newVal in c and recomputes
// only the affected T rows. It appends the T rows that changed, ascending,
// to changed — rows recomputed to bit-identical values are left out and
// left alone — the column list each held before to old, and the values
// each held to vals, back to back (row x's are the len(old[x]) after row
// x-1's): a row whose columns held is written over in place, so the values
// it held survive only in vals. oldVal must match the current entry; the
// mismatch error catches callers whose shadow copy of S has drifted from
// the closure's. After an error c is partly patched and must be
// discarded. A no-op change writes nothing.
func (c *Closure) PatchEdge(src, dst int, oldVal, newVal float64, changed []int, old [][]int32, vals []float64) ([]int, [][]int32, []float64, error) {
	if err := c.checkEdge(src, dst, oldVal, newVal); err != nil {
		return changed, old, vals, fmt.Errorf("transitive: PatchEdge(%d, %d): %w", src, dst, err)
	}
	if num.IsZero(oldVal - newVal) {
		return changed, old, vals, nil
	}
	row := c.s[src]
	cols, rv := SetEntry(row.cols, row.vals, dst, newVal)
	c.edges += len(cols) - len(row.cols)
	c.s[src] = sparseRow{cols: cols, vals: rv}
	// The affected set reads patterns only, and the edit cannot change it
	// (see Closure).
	sc := getScratch(c.n)
	defer sc.put()
	if err := c.recompute(c.affected(sc, src), sc); err != nil {
		return changed, old, vals, fmt.Errorf("transitive: PatchEdge(%d, %d): %w", src, dst, err)
	}
	return append(changed, sc.changed...), append(old, sc.old...), append(vals, sc.oldVals...), nil
}

// Grow extends c in place by k principals with no agreements. A fresh
// principal has no edges, so no chain among the existing rows can use it:
// the exact closure is the old one with k empty rows, appended with
// amortized capacity — no entry touched, no enumeration. A raised clamped
// level changes nothing either: a chain visits each principal once, so
// none among the old rows is longer than the old n-1.
func (c *Closure) Grow(k int) {
	if k <= 0 {
		return
	}
	c.n += k
	c.s = append(c.s, make([]sparseRow, k)...)
	c.t = append(c.t, make([]sparseRow, k)...)
}

// hasEdge reports whether S[x][u] is stored (non-zero).
func (c *Closure) hasEdge(x, u int) bool {
	cols := c.s[x].cols
	k := sort.Search(len(cols), func(k int) bool { return cols[k] >= int32(u) })
	return k < len(cols) && cols[k] == int32(u)
}

// affected returns, ascending, the rows whose chain enumeration can
// mention an edge out of src: src itself plus every row within reverse
// distance level-1 of src. The scan walks predecessors by a per-row
// binary search for the target column (S holds no reverse index); the
// cost is O(level · n · log deg · frontier) — negligible next to the
// recompute it prunes. The breadth-first queue is the result itself, held
// in sc.rows, and the seen set is sc.visited, left clear again; the
// result stays valid until sc is next handed to affected.
func (c *Closure) affected(sc *rowScratch, src int) []int {
	n := c.n
	depth := c.Level() - 1
	seen := sc.visited
	seen[src] = true
	out := append(sc.rows[:0], src)
	for d, lo := 0, 0; d < depth && lo < len(out); d++ {
		hi := len(out)
		for _, u := range out[lo:hi] {
			for x := 0; x < n; x++ {
				if !seen[x] && c.hasEdge(x, u) {
					seen[x] = true
					out = append(out, x)
				}
			}
		}
		lo = hi
	}
	for _, x := range out {
		seen[x] = false
	}
	sort.Ints(out)
	sc.rows = out
	return out
}

// recompute refreshes the given rows of c's T against c's agreement rows,
// comparing each against the row c holds before it stores anything (see
// store). sc.changed lists the changed rows, ascending, and sc.old and
// sc.oldVals what each held. Past the blast-radius threshold it abandons
// the delta and recomputes every row with the parallel full build, keeping
// c's table until it has compared and replacing each row that changed.
// Either way the work is charged to c's budget as it is done, and
// ErrBudget abandons c. The delta runs its rows through sc, which must be
// clear.
func (c *Closure) recompute(rows []int, sc *rowScratch) error {
	n := c.n
	sc.changed, sc.old, sc.oldVals = sc.changed[:0], sc.old[:0], sc.oldVals[:0]
	if blastDenominator*len(rows) > n {
		t, ok := sparseRows(n, c.s, c.reqLevel, par.Workers(n), newMeter(c.budget))
		if !ok {
			return budgetErr(c.budget)
		}
		for i, row := range t {
			if !rowsEqual(c.t[i], row) {
				sc.note(i, c.t[i])
				c.t[i] = row
			}
		}
		return nil
	}
	maxLen := c.Level()
	m := newMeter(c.budget) // charged by this goroutine alone, so it stays on the stack
	for _, src := range rows {
		if !sc.exactRow(c.s, src, maxLen, m) {
			return budgetErr(c.budget)
		}
		c.store(sc, src)
	}
	return nil
}

// store settles T's row i against the row sc accumulated, comparing before
// it copies: an identical row costs nothing; one whose values alone moved
// is written over the held values; any other row is taken at exact size.
// A changed row is noted in sc.
func (c *Closure) store(sc *rowScratch, i int) {
	held := c.t[i]
	pattern, same := sc.matches(held)
	switch {
	case same:
		sc.discard()
	case pattern:
		sc.note(i, held)
		sc.emit(held.vals)
	default:
		sc.note(i, held)
		c.t[i] = sc.take()
	}
}

// rowsEqual reports whether two sparse rows hold identical values. Rows
// store no exact zero, so a differing pattern is a differing value.
func rowsEqual(a, b sparseRow) bool {
	if len(a.cols) != len(b.cols) {
		return false
	}
	for k := range a.cols {
		if a.cols[k] != b.cols[k] || !num.IsZero(a.vals[k]-b.vals[k]) {
			return false
		}
	}
	return true
}
