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
// over in place. A cell that appears or vanishes lays out a new row or
// column. After an error the receiver is partly patched and must be
// discarded. No plan state outlives its plan, so a write has no LP to
// invalidate: the next plan builds its requester's from what the write left.
//
// What each cache depends on, what a write pays to refresh it, and when it
// survives. Every cost is in stored entries of the rows and columns that
// moved:
//
//	cache     depends on                  refreshed by             survives
//	───────── ─────────────────────────── ──────────────────────── ─────────────────────────
//	clo (T)   S values, level             re-enumerating the       rows that cannot reach
//	                                      affected rows            the edited edge's source
//	flow: K,  T rows (values capped at 1, capRow per changed T     rows whose T row held;
//	conn      columns shared with T);     row, aliasing it unless  K rows alias T rows
//	          conn: K row sums            an entry > 1; one walk   unless the cap bites
//	cols      K and A columns (pattern    the moved cells written  columns no moved cell
//	          and values)                 over, or merged anew     falls in
//
// A mutated allocator plans bit-identically to a fresh NewAllocator over
// the mutated matrices (pinned by the incremental equivalence tests):
// untouched rows are identical, and patched rows replay NewAllocator's
// per-row computations.

// SetShare is PatchShare on a copy of al, for a caller that keeps al, which
// stays as it was: the copy owns its closure, A's values and every cache
// built from them, and shares A's column lists, which never change once
// stored, and the workspace free list. Only the layer benchmark, which times
// it, still calls it.
func (al *Allocator) SetShare(from, to int, oldVal, newVal float64) (*Allocator, error) {
	d := &Allocator{n: al.n, aCols: slices.Clone(al.aCols), aVals: make([][]float64, al.n), hasA: al.hasA, cfg: al.cfg,
		clo: al.clo.Clone(), free: al.free}
	for i, vals := range al.aVals {
		d.aVals[i] = slices.Clone(vals)
	}
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
	defer func() { clear(ps.old); patchPool.Put(ps) }()
	var err error
	ps.rows, ps.old, ps.vals, err = al.clo.PatchEdge(from, to, oldVal, newVal, ps.rows[:0], ps.old[:0], ps.vals[:0])
	if err != nil {
		return fmt.Errorf("core: PatchShare: %w", err)
	}
	al.applyClosureDelta(ps)
	return nil
}

// patchScratch holds a patch's lists — the T rows changed, the columns
// and the values each held (the closure may have written over the latter),
// the K cells moved — pooled: struct copies would share a field.
type patchScratch struct {
	rows  []int
	old   [][]int32
	vals  []float64
	moves []cellMove
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
// source is copied. A column whose moved rows all stay listed is written
// over (overwrite); the others come out of one int32 and one float64 arena,
// sized first, and their old layouts are left as they were.
func (d *Allocator) replaceColumns(moves []cellMove) {
	rest, size := moves[:0], 0
	for len(moves) > 0 {
		x, c := 1, int(moves[0].c)
		for x < len(moves) && int(moves[x].c) == c {
			x++
		}
		if !d.overwrite(c, moves[:x]) {
			size += len(d.cols[c].idx) + x
			rest = append(rest, moves[:x]...) // never ahead of what it copies
		}
		moves = moves[x:]
	}
	if len(rest) == 0 {
		return
	}
	moves = rest
	vals := make([]float64, 2*size)
	out := column{idx: make([]int32, 0, size), k: vals[:0:size], a: vals[size:size]}
	for len(moves) > 0 {
		c, from := int(moves[0].c), len(out.idx)
		old := d.cols[c]
		x := 0
		for ; len(moves) > 0 && int(moves[0].c) == c; moves = moves[1:] {
			mv := moves[0]
			for ; x < len(old.idx) && old.idx[x] < mv.r; x++ {
				out.append(old.idx[x], old.k[x], old.a[x])
			}
			if x < len(old.idx) && old.idx[x] == mv.r {
				x++
			}
			if av := d.aAt(int(mv.r), c); int(mv.r) != c && (!num.IsZero(mv.k) || !num.IsZero(av)) {
				out.append(mv.r, mv.k, av)
			}
		}
		out.idx, out.k, out.a = append(out.idx, old.idx[x:]...), append(out.k, old.k[x:]...), append(out.a, old.a[x:]...)
		d.cols[c] = out.since(from)
	}
}

// overwrite writes moves, all in column c, over the column's values if
// every moved row but the diagonal stays listed, so its idx holds, and
// reports whether it did.
func (d *Allocator) overwrite(c int, moves []cellMove) bool {
	col := d.cols[c]
	for _, mv := range moves {
		_, listed := slices.BinarySearch(col.idx, mv.r)
		if int(mv.r) != c && (!listed || num.IsZero(mv.k) && num.IsZero(d.aAt(int(mv.r), c))) {
			return false
		}
	}
	for _, mv := range moves {
		if x, listed := slices.BinarySearch(col.idx, mv.r); listed {
			col.k[x], col.a[x] = mv.k, d.aAt(int(mv.r), c)
		}
	}
	return true
}

// applyClosureDelta patches the flow rows and the columns after the closure
// changed T rows ps.rows (ascending), which held columns ps.old and values
// ps.vals, per the dependency table above.
func (d *Allocator) applyClosureDelta(ps *patchScratch) {
	// Each changed T row gets its K row rebuilt (an uncapped one is the T
	// row's own slice) and its conn re-summed in NewAllocator's order, the
	// old K row read from its slot first — or, where it aliased a T row the
	// closure wrote over, from the values handed back; the cells whose
	// capped value moved decide all downstream.
	moves, off := ps.moves[:0], 0
	for x, r := range ps.rows {
		oc, ov := ps.old[x], d.flow[r].k
		if _, tv := d.clo.FlowRow(r); sameArray(ov, tv) {
			ov = ps.vals[off : off+len(oc)]
		}
		off += len(oc)
		d.flow[r] = flowRowOf(d.clo, r)
		cols, _, kv := d.FlowRow(r)
		moves = rowMoves(moves, r, oc, ov, cols, kv)
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
	d.replaceColumns(moves)
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
	al.aCols[from], al.aVals[from] = transitive.SetEntry(al.aCols[from], al.aVals[from], to, newVal)
	if from == to {
		return nil // diagonal entries are read by nothing
	}
	// Column `to` caches A's values, so any value move stales it.
	al.replaceColumns([]cellMove{{c: int32(to), r: int32(from), k: al.kAt(from, to)}})
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
	al.aCols, al.aVals = append(al.aCols, make([][]int32, extra)...), append(al.aVals, make([][]float64, extra)...)
	al.flow, al.cols = append(al.flow, make([]flowRow, extra)...), append(al.cols, make([]column, extra)...)
}

// Share returns S[from][to], the old value callers pass back into
// PatchShare: a binary search over the closure's row `from`.
func (al *Allocator) Share(from, to int) float64 { return al.clo.Edge(from, to) }

// Agreement returns A[from][to], zero when the allocator holds no A.
func (al *Allocator) Agreement(from, to int) float64 { return al.aAt(from, to) }
