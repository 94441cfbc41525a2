package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/num"
	"repro/internal/transitive"
)

// This file implements agreement mutations: S/A patched through the delta
// transitive closure, and only the caches the change reaches refreshed,
// instead of a full NewAllocator rebuild and its exact chain enumeration.
//
// One owner, one write path. PatchShare, PatchAgreement and Grow write
// into the receiver itself, which owns every row and column it holds: its
// owner — the grm server — plans and writes under one lock, so no plan is
// in flight across a write. A value whose cell stays stored is written
// over in place. A row or column a cell appears in or vanishes from is
// rewritten as a transitive.Table write does: in place where its length
// holds or it ends its arena, else at the arena's tail, its old slot dead
// until the table repacks. After an error the receiver is partly patched
// and must be discarded. No plan state outlives its plan, so a write has
// no LP to invalidate: the next plan builds its requester's from what the
// write left.
//
// What each cache depends on, what a write pays to refresh it, and when it
// survives. Every cost is in stored entries of the rows and columns that
// moved:
//
//	cache     depends on                  refreshed by             survives
//	───────── ─────────────────────────── ──────────────────────── ─────────────────────────
//	clo (T)   S values, level             re-enumerating the       rows that cannot reach
//	                                      affected rows            the edited edge's source
//	K, conn   T rows (values capped at 1, a K row stored per      rows whose T row held;
//	          columns shared with T);     changed T row where an   K rows read T rows
//	          conn: K row sums            entry > 1; one walk      unless the cap bites
//	cols      K and A columns (pattern    the moved cells written  columns no moved cell
//	          and values)                 over, or merged anew     falls in
//
// A mutated allocator plans bit-identically to a fresh NewAllocator over
// the mutated matrices (pinned by the incremental equivalence tests):
// untouched rows are identical, and patched rows replay NewAllocator's
// per-row computations.

// SetShare is PatchShare on a copy of al, for a caller that keeps al, which
// stays as it was: the copy owns its closure, A and every cache built from
// them, and shares the workspace free list. Only the layer benchmark, which
// times it, still calls it.
func (al *Allocator) SetShare(from, to int, oldVal, newVal float64) (*Allocator, error) {
	d := &Allocator{n: al.n, a: al.a.Clone(), hasA: al.hasA, cfg: al.cfg, clo: al.clo.Clone(), free: al.free}
	d.index()
	if err := d.PatchShare(from, to, oldVal, newVal); err != nil {
		return nil, err
	}
	return d, nil
}

// PatchShare changes S[from][to] from oldVal to newVal in the receiver.
// It refuses a stale oldVal and, with transitive.ErrBudget, a graph
// densified past the enumeration budget, as NewAllocator would.
func (al *Allocator) PatchShare(from, to int, oldVal, newVal float64) error {
	ps := patchPool.Get().(*patchScratch)
	defer patchPool.Put(ps)
	if err := al.clo.PatchEdge(from, to, oldVal, newVal, &ps.delta); err != nil {
		return fmt.Errorf("core: PatchShare: %w", err)
	}
	al.applyClosureDelta(ps)
	return nil
}

// patchScratch holds a patch's lists — the T rows changed with copies of
// what each held, the K cells moved, and the K row or column being laid
// out — pooled: struct copies would share a field.
type patchScratch struct {
	delta transitive.Delta
	moves []cellMove
	idx   []int32
	k, a  []float64
	vals  []float64
}

var patchPool = sync.Pool{New: func() any { return new(patchScratch) }}

// cellMove is one K entry whose value a mutation moved: row r, column c,
// the new value k (0 when the entry left the row).
type cellMove struct {
	c, r int32
	k    float64
}

// rowMoves appends the cells at which K row r differs between its old
// and new sparse forms, in ascending column order. Rows store no exact
// zero, so a cell present on one side only always differs.
func rowMoves(out []cellMove, r int, oc []int32, ov []float64, nc []int32, nv []float64) []cellMove {
	mergeCols(oc, nc, func(c int32, x, y int) {
		var k float64
		if y >= 0 {
			k = nv[y]
		}
		if x < 0 || y < 0 || !num.IsZero(ov[x]-k) {
			out = append(out, cellMove{c: c, r: int32(r), k: k})
		}
	})
	return out
}

// replaceColumns merges moves — sorted by column, ascending by row within
// one — into d's columns: a moved row takes its new K value and d's current
// A value and stays listed only while one of them is nonzero; every other
// source is kept. A column whose moved rows all stay listed is written
// over in place; any other is merged in ps and written back as a Table
// write does (patchColumn).
func (d *Allocator) replaceColumns(ps *patchScratch, moves []cellMove) {
	for len(moves) > 0 {
		x, c := 1, int(moves[0].c)
		for x < len(moves) && int(moves[x].c) == c {
			x++
		}
		d.patchColumn(ps, c, moves[:x])
		moves = moves[x:]
	}
}

// mergeColumn lays column c out anew with its moved cells, all in c.
func (d *Allocator) mergeColumn(ps *patchScratch, c int, moves []cellMove) {
	old := d.column(c)
	idx, ks, as := ps.idx[:0], ps.k[:0], ps.a[:0]
	x := 0
	for _, mv := range moves {
		for ; x < len(old.idx) && old.idx[x] < mv.r; x++ {
			idx, ks, as = append(idx, old.idx[x]), append(ks, old.k[x]), append(as, old.a[x])
		}
		if x < len(old.idx) && old.idx[x] == mv.r {
			x++
		}
		if av := d.aAt(int(mv.r), c); int(mv.r) != c && (!num.IsZero(mv.k) || !num.IsZero(av)) {
			idx, ks, as = append(idx, mv.r), append(ks, mv.k), append(as, av)
		}
	}
	idx, ks, as = append(idx, old.idx[x:]...), append(ks, old.k[x:]...), append(as, old.a[x:]...)
	ps.idx, ps.k, ps.a, ps.vals = idx, ks, as, append(append(ps.vals[:0], ks...), as...)
	d.cols.Set(c, idx, ps.vals)
}

// patchColumn writes moves, all in column c, over the column's values if
// every moved row but the diagonal stays listed, so its idx holds, and
// else merges them into the column anew.
func (d *Allocator) patchColumn(ps *patchScratch, c int, moves []cellMove) {
	col := d.column(c)
	for _, mv := range moves {
		_, listed := slices.BinarySearch(col.idx, mv.r)
		if int(mv.r) != c && (!listed || num.IsZero(mv.k) && num.IsZero(d.aAt(int(mv.r), c))) {
			d.mergeColumn(ps, c, moves)
			return
		}
	}
	for _, mv := range moves {
		if x, listed := slices.BinarySearch(col.idx, mv.r); listed {
			col.k[x], col.a[x] = mv.k, d.aAt(int(mv.r), c)
		}
	}
}

// applyClosureDelta patches the K rows, conn and the columns after the
// closure changed the T rows ps.delta reports, per the dependency table
// above.
func (d *Allocator) applyClosureDelta(ps *patchScratch) {
	// Each changed T row gets its K row rebuilt — stored where the cap
	// bites, else read from T — and its conn re-summed in NewAllocator's
	// order. The old K row is read from its stored slot first, else from
	// the T values the closure handed back; the cells whose capped value
	// moved decide all downstream.
	moves := ps.moves[:0]
	for x, r := range ps.delta.Rows {
		oc, ov := ps.delta.Held(x)
		if _, kv := d.k.Row(r); len(kv) > 0 {
			ov = kv
		}
		cols, tv := d.clo.FlowRow(r)
		kv, bites := tv, capped(tv)
		if bites {
			ps.k = append(ps.k[:0], tv...)
			capInto(ps.k, tv)
			kv = ps.k
		}
		moves = rowMoves(moves, r, oc, ov, cols, kv)
		switch {
		case bites:
			d.k.Set(r, cols, kv)
		case d.k.Len(r) > 0:
			d.k.Set(r, nil, nil)
		}
		d.conn[r] = connOf(r, cols, kv)
	}
	ps.moves = moves
	if len(moves) == 0 {
		return // the cap clamped the whole change away: K is value-identical
	}
	// A column whose cell moved — in value, not just in pattern, since
	// columns cache K values — is refreshed with its moved cells. Rows were
	// visited ascending, so a stable sort by column leaves each column's
	// cells ascending by row.
	slices.SortStableFunc(moves, func(a, b cellMove) int { return cmp.Compare(a.c, b.c) })
	d.replaceColumns(ps, moves)
}

// PatchAgreement changes A[from][to] from oldVal to newVal in the
// receiver (making A if there was none). A never enters the closure: a
// value-only change writes over the entry and column `to` and keeps every
// other cache, and a flip between zero and positive also lays column `to`
// out anew.
func (al *Allocator) PatchAgreement(from, to int, oldVal, newVal float64) error {
	n := al.n
	if from < 0 || from >= n || to < 0 || to >= n || newVal < 0 {
		return fmt.Errorf("core: PatchAgreement(%d, %d): index out of range for n=%d or value %g negative", from, to, n, newVal)
	}
	if cur := al.aAt(from, to); !num.IsZero(cur - oldVal) {
		return fmt.Errorf("core: PatchAgreement(%d, %d): stale old value %g, allocator holds %g", from, to, oldVal, cur)
	}
	if num.IsZero(oldVal - newVal) {
		return nil
	}
	al.hasA = true
	al.a.SetEntry(from, to, newVal)
	if from == to {
		return nil // diagonal entries are read by nothing
	}
	// Column `to` caches A's values, so any value move stales it.
	ps := patchPool.Get().(*patchScratch)
	defer patchPool.Put(ps)
	ps.moves = append(ps.moves[:0], cellMove{c: int32(to), r: int32(from), k: al.kAt(from, to)})
	al.replaceColumns(ps, ps.moves)
	return nil
}

// Grow extends the allocator in place by extra principals holding no
// agreements, whose rows and columns are empty: every per-principal table
// is appended to with amortized capacity, no entry is touched and nothing
// enumerated.
func (al *Allocator) Grow(extra int) {
	if extra <= 0 {
		return
	}
	al.clo.Grow(extra)
	al.n += extra
	al.a.Grow(extra)
	al.k.Grow(extra)
	al.cols.Grow(extra)
	al.conn = append(al.conn, make([]float64, extra)...)
}

// Share returns S[from][to], the old value callers pass back into
// PatchShare: a binary search over the closure's row `from`.
func (al *Allocator) Share(from, to int) float64 { return al.clo.Edge(from, to) }

// Agreement returns A[from][to], zero when the allocator holds no A.
func (al *Allocator) Agreement(from, to int) float64 { return al.aAt(from, to) }
