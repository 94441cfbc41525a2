package transitive

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/num"
	"repro/internal/par"
)

// ErrBudget is wrapped by NewClosureBudget when building an exact
// closure, and by UpdateEdge/UpdateRow/PatchEdge when recomputing the
// affected rows of one, charges more steps than the budget allows.
// Callers should treat the graph, or the mutation, as "too dense to
// enforce exactly".
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
// Everything is row-sparse: the agreement matrix S and the flow matrix T
// are each one table of rows, a row the ascending columns of exactly the
// entries that are not exactly zero, with their values. Between principals
// with no agreement chain T is zero, so a closure over many small
// communities costs O(n) row headers plus its stored entries, every pass
// here (build, delta, compare, Grow) costs the entries it visits, never
// n², and a derivation copies the two tables. The kernels accumulate into
// a per-worker dense scratch row and emit exact-size rows; they read the
// same floats in the same order a dense scan would, and every sum is
// non-negative, so skipping an unstored +0 keeps each result
// bit-identical to the dense library functions (Exact, Approx). T() is a
// dense export for tests and the bench; nothing on the serving path calls
// it.
//
// One patch serves two kinds of caller. UpdateEdge and UpdateRow are
// copy-on-write: they Clone the two row tables and patch the clone, so the
// derived *Closure shares every unchanged row with the receiver, which
// stays valid — what callers that keep the old handle need: the
// model-based tests compare a derived closure against its parent, and the
// benchmark's probe mutates one closure over and over. PatchEdge patches
// the receiver's own tables, for an owner that never reads an older
// version: the grm server plans and patches its planner under one state
// lock, so no solve is in flight across a mutation, and its writes copy no
// O(n) table. Either way a patch writes table slots, never a row's backing
// array, so a row is immutable once stored.
type Closure struct {
	// reqLevel is the level of transitivity as requested at construction,
	// before clamping; clamping is redone against the current n so a
	// full-transitivity closure (level >= n-1) stays full after Grow.
	reqLevel int
	approx   bool
	n        int
	t        []sparseRow // T's rows; each shared with clones, never written
	s        []sparseRow // S's rows, the out-edges of each principal; likewise
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
	g, edges := adjacency(s)
	c, _ := newClosureFromRows(len(s), g, edges, level, approx, 0)
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
	return newClosureFromRows(n, rowsOf(cols, vals), edges, level, approx, budget)
}

func newClosureFromRows(n int, g []sparseRow, edges, level int, approx bool, budget int) (*Closure, error) {
	t, ok := sparseRows(n, g, level, approx, par.Workers(n), newMeter(budget))
	if !ok {
		return nil, budgetErr(budget)
	}
	return &Closure{reqLevel: level, approx: approx, n: n, t: t, s: g, edges: edges, budget: budget}, nil
}

// N returns the number of principals.
func (c *Closure) N() int { return c.n }

// Level returns the effective (clamped) level of transitivity.
func (c *Closure) Level() int { return clampLevel(c.reqLevel, c.n) }

// T materializes the current flow-coefficient matrix as fresh dense rows
// — the export for tests and the bench; unstored entries come out as +0
// exactly. It costs n² floats per call: the serving path reads FlowRow
// instead.
func (c *Closure) T() [][]float64 { return denseOf(c.n, c.t) }

// FlowRow returns row src of T as ascending non-zero column indices and
// their coefficients. The slices are shared with the closure and must be
// treated as read-only.
func (c *Closure) FlowRow(src int) ([]int32, []float64) {
	return c.t[src].cols, c.t[src].vals
}

// Bytes returns the memory the closure's rows hold: 12 bytes per stored
// S and T entry plus a row of each per principal (two slice headers a
// row). Rows shared with other closures are counted in full.
func (c *Closure) Bytes() int {
	entries := c.edges
	for _, row := range c.t {
		entries += len(row.cols)
	}
	return 12*entries + 4*24*c.n
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
// for chaining at construction time; derived closures inherit the
// budget. A derivation that runs past it is abandoned and the receiver
// stays as it was; a PatchEdge that does leaves its receiver to discard.
func (c *Closure) WithBudget(steps int) *Closure {
	c.budget = steps
	return c
}

// Clone returns a closure that shares every row with c but owns its two
// row tables, so a patch of the clone (PatchEdge) leaves c as it was.
func (c *Closure) Clone() *Closure {
	d := *c
	d.t, d.s = slices.Clone(c.t), slices.Clone(c.s)
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

// UpdateEdge derives a closure with S[src][dst] changed from oldVal to
// newVal, recomputing only the affected rows: PatchEdge on a Clone. It
// returns the derived closure (the receiver is unchanged and stays valid)
// and the ascending list of rows whose T actually changed — rows
// recomputed to bit-identical values are reported as unchanged and keep
// their shared slices. oldVal must match the current entry; the mismatch
// error catches callers whose shadow copy of S has drifted from the
// closure's.
func (c *Closure) UpdateEdge(src, dst int, oldVal, newVal float64) (*Closure, []int, error) {
	if err := c.checkEdge(src, dst, oldVal, newVal); err != nil {
		return nil, nil, fmt.Errorf("transitive: UpdateEdge(%d, %d): %w", src, dst, err)
	}
	if num.IsZero(oldVal - newVal) {
		return c, nil, nil
	}
	cols, vals := SetEntry(c.s[src].cols, c.s[src].vals, dst, newVal)
	d, changed, err := c.derive(src, cols, vals)
	if err != nil {
		return nil, nil, fmt.Errorf("transitive: UpdateEdge(%d, %d): %w", src, dst, err)
	}
	return d, changed, nil
}

// PatchEdge is UpdateEdge applied to the receiver itself: it writes the
// new S row and every T row that changed into c's own tables, and appends
// those T rows, ascending, to changed and the column list each held before
// to old. A patch writes table slots only, never a row's backing array, so
// rows stay shared with every Clone and ancestor, and those stay valid;
// but c's caller must be its only user, with no read of c in flight. After
// an error c is partly patched and must be discarded. A no-op change
// writes nothing.
func (c *Closure) PatchEdge(src, dst int, oldVal, newVal float64, changed []int, old [][]int32) ([]int, [][]int32, error) {
	if err := c.checkEdge(src, dst, oldVal, newVal); err != nil {
		return changed, old, fmt.Errorf("transitive: PatchEdge(%d, %d): %w", src, dst, err)
	}
	if num.IsZero(oldVal - newVal) {
		return changed, old, nil
	}
	cols, vals := SetEntry(c.s[src].cols, c.s[src].vals, dst, newVal)
	sc := getScratch(c.n)
	defer sc.put()
	if err := c.edit(sc, src, cols, vals); err != nil {
		return changed, old, fmt.Errorf("transitive: PatchEdge(%d, %d): %w", src, dst, err)
	}
	return append(changed, sc.changed...), append(old, sc.old...), nil
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
	for k, j := range c.s[src].cols {
		cur[j] = c.s[src].vals[k]
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
	cols, vals := RowOf(row)
	d, changed, err := c.derive(src, cols, vals)
	if err != nil {
		return nil, nil, fmt.Errorf("transitive: UpdateRow(%d): %w", src, err)
	}
	return d, changed, nil
}

// derive edits a Clone of c, so c stays as it was, and returns the clone
// with the T rows the edit replaced.
func (c *Closure) derive(src int, cols []int32, vals []float64) (*Closure, []int, error) {
	d := c.Clone()
	sc := getScratch(c.n)
	defer sc.put()
	if err := d.edit(sc, src, cols, vals); err != nil {
		return nil, nil, err
	}
	return d, append([]int(nil), sc.changed...), nil
}

// edit puts (cols, vals) in S's row src and recomputes, through sc, the T
// rows that can reach src: the one patch behind every mutator. The
// affected set is read after the edit, which cannot change it (see
// Closure).
func (c *Closure) edit(sc *rowScratch, src int, cols []int32, vals []float64) error {
	c.edges += len(cols) - len(c.s[src].cols)
	c.s[src] = sparseRow{cols: cols, vals: vals}
	return c.recompute(c.affected(sc, src), sc)
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
	d.s = make([]sparseRow, nn)
	copy(d.s, c.s)
	if c.approx && d.Level() != c.Level() {
		d.t, _ = sparseRows(nn, d.s, d.reqLevel, true, par.Workers(nn), nil)
		return d
	}
	d.t = make([]sparseRow, nn)
	copy(d.t, c.t)
	return d
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
// comparing each against the row c holds: only rows that actually changed
// are replaced, so an unchanged row keeps sharing memory with every clone.
// sc.changed lists the replaced rows, ascending, and sc.old the column
// list each held. Past the blast-radius threshold it abandons the delta
// and recomputes every row with the parallel full build, keeping c's table
// until it has compared. Either way the work is charged to c's budget as
// it is done, and ErrBudget abandons c. The delta runs its rows through
// sc, which must be clear.
func (c *Closure) recompute(rows []int, sc *rowScratch) error {
	n := c.n
	budget := c.budget
	if c.approx {
		budget = 0 // walk counting is polynomial and never refused
	}
	sc.changed, sc.old = sc.changed[:0], sc.old[:0]
	if blastDenominator*len(rows) > n {
		t, ok := sparseRows(n, c.s, c.reqLevel, c.approx, par.Workers(n), newMeter(budget))
		if !ok {
			return budgetErr(c.budget)
		}
		for i, row := range t {
			if !rowsEqual(c.t[i], row) {
				c.replace(sc, i, row)
			}
		}
		return nil
	}
	maxLen := c.Level()
	m := newMeter(budget) // charged by this goroutine alone, so it stays on the stack
	for _, src := range rows {
		if !sc.row(c.s, src, maxLen, c.approx, m) {
			return budgetErr(c.budget)
		}
		if row := sc.take(); !rowsEqual(c.t[src], row) {
			c.replace(sc, src, row)
		}
	}
	return nil
}

// replace puts row in T's slot i, noting i and the columns it replaced in
// sc.
func (c *Closure) replace(sc *rowScratch, i int, row sparseRow) {
	sc.changed, sc.old = append(sc.changed, i), append(sc.old, c.t[i].cols)
	c.t[i] = row
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
