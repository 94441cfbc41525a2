package transitive

import (
	"errors"
	"fmt"
	"slices"

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
// are each one Table, a row the ascending columns of exactly the entries
// that are not exactly zero, with their values, in one column and one
// value arena per table. Between principals with no agreement chain T is
// zero, so a closure over many small communities costs 16 bytes of row
// offsets a principal plus its stored entries, and every pass here (build,
// delta, compare, Grow) costs the entries it visits, never n². The kernels
// accumulate into a per-worker dense scratch row and pack it; a build lays
// the packed rows out in row order. They read the same floats in the same
// order a dense scan would, and every sum is non-negative, so skipping an
// unstored +0 keeps each result bit-identical to the dense references in
// package modeltest (RefTransitive's chain enumeration).
// The package takes and returns no dense matrix but for T() and
// CapacitiesInto, kept for the layer benchmark; nothing on the serving path
// calls them.
//
// A Closure has one owner, which writes it under the lock it reads it
// under: the grm server plans and patches its planner under one state
// lock. It owns every row it holds — the constructors copy their input —
// and PatchEdge writes the rows it changes into its tables as a Table
// write does: in place where the length holds, at the arena's tail where
// a row grows. A read (FlowRow, Edge) is valid until the next write.
type Closure struct {
	// reqLevel is the level of transitivity as requested at construction,
	// before clamping; clamping is redone against the current n so a
	// full-transitivity closure (level >= n-1) stays full after Grow.
	reqLevel int
	n        int
	t        Table // T's rows
	s        Table // S's rows, the out-edges of each principal
	// budget caps the steps (DFS steps plus DP edge reads) one exact
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
// build charges its DFS steps and DP edge reads as it works and is
// abandoned with ErrBudget once they pass budget (0 = no cap), so a
// refused graph costs about the budget, not its enumeration. The closure
// keeps the budget for PatchEdge (see WithBudget).
func NewClosureBudget(s *agreement.SparseMatrix, level, budget int) (*Closure, error) {
	return closureOf(TableOf(s.N(), 1, s.Row), level, budget)
}

// newClosureCSR is NewClosureBudget over raw CSR rows: cols holds each
// row's ascending column indices, vals the matching values (rows may be
// nil, and may store zeros).
func newClosureCSR(n int, cols [][]int32, vals [][]float64, level, budget int) (*Closure, error) {
	if err := validateCSR(n, cols, vals); err != nil {
		panic(err)
	}
	return closureOf(TableOf(n, 1, func(i int) ([]int32, []float64) { return cols[i], vals[i] }), level, budget)
}

// closureOf builds the closure of the agreement rows g, which it keeps.
func closureOf(g Table, level, budget int) (*Closure, error) {
	n := g.N()
	for i := 0; i < n; i++ {
		cols, vals := g.Row(i)
		if err := validateRow(i, cols, vals); err != nil {
			panic(err)
		}
	}
	t, ok := sparseRows(n, &g, level, par.Workers(n), newMeter(budget))
	if !ok {
		return nil, budgetErr(budget)
	}
	return &Closure{reqLevel: level, n: n, t: t, s: g, budget: budget}, nil
}

// N returns the number of principals.
func (c *Closure) N() int { return c.n }

// Level returns the effective (clamped) level of transitivity.
func (c *Closure) Level() int { return clampLevel(c.reqLevel, c.n) }

// T materializes the current flow-coefficient matrix as fresh dense rows
// — the export for the layer benchmark; unstored entries come out as +0
// exactly. It costs n² floats per call: everything else reads FlowRow.
func (c *Closure) T() [][]float64 { return denseOf(c.n, &c.t) }

// FlowRow returns row src of T as ascending non-zero column indices and
// their coefficients: windows into the closure's arenas, read-only and
// valid until the next write.
func (c *Closure) FlowRow(src int) ([]int32, []float64) { return c.t.Row(src) }

// Bytes returns the memory the closure's tables hold: their row offsets
// and their arenas, dead slots included.
func (c *Closure) Bytes() int { return c.s.Bytes() + c.t.Bytes() }

// Tables returns the closure's S and T tables, to read: the layout a
// caller checks against a fresh build's.
func (c *Closure) Tables() (s, t *Table) { return &c.s, &c.t }

// Edge returns the current agreement entry S[src][dst]: a binary search
// over row src's sorted column list, 0 when unstored.
func (c *Closure) Edge(src, dst int) float64 {
	cols, vals := c.s.Row(src)
	return At(cols, vals, dst)
}

// denseOf scatters a table into a fresh dense n×n matrix.
func denseOf(n int, g *Table) [][]float64 {
	out := zeros(n)
	for i := 0; i < n; i++ {
		cols, vals := g.Row(i)
		for k, j := range cols {
			out[i][j] = vals[k]
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
	d.s, d.t = c.s.Clone(), c.t.Clone()
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
	var delta Delta
	if err := d.PatchEdge(src, dst, oldVal, newVal, &delta); err != nil {
		return nil, nil, err
	}
	return d, delta.Rows, nil
}

// Delta is what PatchEdge reports: Rows, the T rows it changed, ascending
// — rows recomputed to bit-identical values are left out and left alone —
// and a copy of the columns and values each held before, which the patch
// may have written over. A Delta is reused from patch to patch.
type Delta struct {
	Rows []int
	ends []int // row Rows[x] held cols and vals [ends[x-1], ends[x])
	cols []int32
	vals []float64
}

// Held returns the columns and values row Rows[x] held before the patch.
func (d *Delta) Held(x int) ([]int32, []float64) {
	lo := 0
	if x > 0 {
		lo = d.ends[x-1]
	}
	return d.cols[lo:d.ends[x]], d.vals[lo:d.ends[x]]
}

// note records that T's row i changed, copying the columns and values it
// held.
func (d *Delta) note(i int, cols []int32, vals []float64) {
	d.Rows, d.cols, d.vals = append(d.Rows, i), append(d.cols, cols...), append(d.vals, vals...)
	d.ends = append(d.ends, len(d.cols))
}

// PatchEdge changes S[src][dst] from oldVal to newVal in c and recomputes
// only the affected T rows, reporting them in d, which it clears first. oldVal must match the current entry; the mismatch error
// catches callers whose shadow copy of S has drifted from the closure's.
// After an error c is partly patched and must be discarded. A no-op change
// writes nothing.
func (c *Closure) PatchEdge(src, dst int, oldVal, newVal float64, d *Delta) error {
	d.Rows, d.ends, d.cols, d.vals = d.Rows[:0], d.ends[:0], d.cols[:0], d.vals[:0]
	if err := c.checkEdge(src, dst, oldVal, newVal); err != nil {
		return fmt.Errorf("transitive: PatchEdge(%d, %d): %w", src, dst, err)
	}
	if num.IsZero(oldVal - newVal) {
		return nil
	}
	c.s.SetEntry(src, dst, newVal)
	sc := getScratch(c.n)
	defer scratchPool.Put(sc)
	// The affected set reads patterns only, and the edit cannot change it
	// (see Closure).
	if err := c.recompute(c.affected(sc, src), sc, d); err != nil {
		return fmt.Errorf("transitive: PatchEdge(%d, %d): %w", src, dst, err)
	}
	return nil
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
	c.s.Grow(k)
	c.t.Grow(k)
}

// hasEdge reports whether S[x][u] is stored (non-zero).
func (c *Closure) hasEdge(x, u int) bool {
	cols, _ := c.s.Row(x)
	_, ok := slices.BinarySearch(cols, int32(u))
	return ok
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
	slices.Sort(out)
	sc.rows = out
	return out
}

// recompute refreshes the given rows of c's T against c's agreement rows,
// comparing each against the row c holds before it stores anything (see
// store), and notes each row that changed in d, ascending. Past the
// blast-radius threshold it abandons the delta and recomputes every row
// with the parallel full build, keeping c's table until it has compared
// and writing over it each row that changed. Either way the work is
// charged to c's budget as it is done, and ErrBudget abandons c. The delta
// runs its rows through sc, which must be clear.
func (c *Closure) recompute(rows []int, sc *rowScratch, d *Delta) error {
	n := c.n
	if blastDenominator*len(rows) > n {
		t, ok := sparseRows(n, &c.s, c.reqLevel, par.Workers(n), newMeter(c.budget))
		if !ok {
			return budgetErr(c.budget)
		}
		for i := 0; i < n; i++ {
			hc, hv := c.t.Row(i)
			if cols, vals := t.Row(i); !rowsEqual(hc, hv, cols, vals) {
				d.note(i, hc, hv)
				c.t.Set(i, cols, vals)
			}
		}
		return nil
	}
	maxLen := c.Level()
	m := newMeter(c.budget) // charged by this goroutine alone, so it stays on the stack
	for _, src := range rows {
		if !sc.exactRow(&c.s, src, maxLen, m) {
			return budgetErr(c.budget)
		}
		c.store(sc, src, d)
	}
	return nil
}

// store settles T's row i against the row sc accumulated, comparing before
// it writes: an identical row costs nothing; one whose values alone moved
// is written over the held values; any other row is packed and written as
// a Table write does. A changed row is noted in d.
func (c *Closure) store(sc *rowScratch, i int, d *Delta) {
	hc, hv := c.t.Row(i)
	pattern, same := sc.matches(hc, hv)
	switch {
	case same:
		sc.discard()
	case pattern:
		d.note(i, hc, hv)
		sc.emit(hv)
	default:
		d.note(i, hc, hv)
		sc.packCols, sc.packVals = sc.packCols[:0], sc.packVals[:0]
		sc.take()
		c.t.Set(i, sc.packCols, sc.packVals)
	}
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
