package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/num"
	"repro/internal/transitive"
)

// This file implements agreement mutations: S/A patched through the delta
// transitive closure, and only the caches the change reaches invalidated,
// instead of a full NewAllocator rebuild and its exact chain enumeration.
//
// Each mutation is one patch with two entry points. SetShare, SetAgreement
// and Grow are copy-on-write: the result owns clones of the tables its
// patch writes and shares every row, the skeleton table and the workspace
// pool, so the receiver stays valid under in-flight Plans. PatchShare and
// PatchAgreement write into the receiver's own tables — the grm server's
// path. A patch writes table slots, never a row's backing array, so its
// receiver needs one owner, planning under its writes' lock, and no
// allocator in use may share a table it writes: PatchShare's are the
// closure's, flow and cols, PatchAgreement's A's and cols. SetShare's
// result shares A's with its receiver, SetAgreement's the closure and flow;
// a constructor's or Grow's, none. After an error the receiver is partly
// patched and must be discarded.
//
// What each cache depends on, what a mutation pays to refresh it, and when
// it survives. Every cost is in stored entries of the rows and columns that
// moved; only a persistent mutator's clones are O(n), one table per
// structure:
//
//	cache     depends on                  refreshed by             survives
//	───────── ─────────────────────────── ──────────────────────── ─────────────────────────
//	clo (T)   S values, level             re-enumerating the       rows that cannot reach
//	                                      affected rows            the edited edge's source
//	flow: K,  T rows (values capped at 1, capRow per changed T     rows whose T row held;
//	conn      columns shared with T);     row, aliasing it unless  K rows alias T rows
//	          conn: K row sums            an entry > 1; one walk   unless the cap bites
//	cols      K and A columns (pattern    one merge of the moved   columns no moved cell
//	          and values)                 cells into two arenas    falls in
//	skel[r]   K and A patterns only:      one fresh slice of nil   every change that flips
//	          every number is rebound     slots; r's next Plan     no K or A cell between
//	          per solve                   builds it in one pass    zero and nonzero
//
// A mutated allocator plans bit-identically to a fresh NewAllocator over
// the mutated matrices (pinned by the incremental equivalence tests):
// shared rows are identical, patched rows replay NewAllocator's per-row
// computations, and a kept skeleton is rebound to the fresh numbers.

// SetShare derives an allocator with the relative agreement S[from][to]
// changed from oldVal to newVal: PatchShare on a copy owning the closure,
// flow and column tables. A no-op change returns the receiver.
func (al *Allocator) SetShare(from, to int, oldVal, newVal float64) (*Allocator, error) {
	d := al // a patch that changes nothing writes nothing: it only checks
	if !num.IsZero(oldVal - newVal) {
		c := *al
		c.clo, c.flow, c.cols = al.clo.Clone(), slices.Clone(al.flow), slices.Clone(al.cols)
		d = &c
	}
	if err := d.PatchShare(from, to, oldVal, newVal); err != nil {
		return nil, err
	}
	return d, nil
}

// PatchShare changes S[from][to] from oldVal to newVal in the receiver,
// under the ownership rule above. It refuses a stale oldVal and, with
// transitive.ErrBudget, a graph densified past the enumeration budget, as
// NewAllocator would.
func (al *Allocator) PatchShare(from, to int, oldVal, newVal float64) error {
	ps := patchPool.Get().(*patchScratch)
	defer func() { clear(ps.old); patchPool.Put(ps) }()
	var err error
	ps.rows, ps.old, err = al.clo.PatchEdge(from, to, oldVal, newVal, ps.rows[:0], ps.old[:0])
	if err != nil {
		return fmt.Errorf("core: PatchShare: %w", err)
	}
	al.applyClosureDelta(ps)
	return nil
}

// patchScratch holds a patch's lists — the T rows replaced, the columns
// each held, the K cells moved — pooled: struct copies would share a field.
type patchScratch struct {
	rows  []int
	old   [][]int32
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
// source is copied. The new columns come out of one int32 and one float64
// arena, sized first; the old columns stay shared, unmodified.
func (d *Allocator) replaceColumns(moves []cellMove) {
	size := len(moves)
	for x, mv := range moves {
		if x == 0 || mv.c != moves[x-1].c {
			size += len(d.cols[mv.c].idx)
		}
	}
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

// applyClosureDelta patches the flow rows, the columns and the skeleton
// table after the closure replaced T rows ps.rows (ascending), which held
// columns ps.old, per the dependency table above.
func (d *Allocator) applyClosureDelta(ps *patchScratch) {
	// Each replaced T row gets its K row rebuilt (an uncapped one is the T
	// row's own slice) and its conn re-summed in NewAllocator's order, the
	// old K row read from its slot first; the cells whose capped value moved
	// decide all downstream, and a row whose columns moved flipped a cell.
	moves, flipped := ps.moves[:0], false
	for x, r := range ps.rows {
		ov := d.flow[r].k
		d.flow[r] = flowRowOf(d.clo, r)
		cols, _, kv := d.FlowRow(r)
		oc := ps.old[x]
		moves, flipped = rowMoves(moves, r, oc, ov, cols, kv), flipped || !slices.Equal(oc, cols)
	}
	ps.moves = moves
	if len(moves) == 0 {
		return // the cap clamped the whole change away: K is value-identical
	}
	// A column whose cell moved — in value, not just in pattern, since
	// columns cache K values — is refreshed by merging its moved cells into
	// the old list. Rows were visited ascending, so a stable sort by
	// column leaves each column's cells ascending by row.
	slices.SortStableFunc(moves, func(a, b cellMove) int { return cmp.Compare(a.c, b.c) })
	d.replaceColumns(moves)
	if flipped {
		d.skel = make([]atomic.Pointer[planSkeleton], d.n)
	}
}

// SetAgreement derives an allocator with the absolute agreement
// A[from][to] changed from oldVal to newVal: PatchAgreement on a copy
// owning A's and the column tables. A no-op change returns the receiver.
func (al *Allocator) SetAgreement(from, to int, oldVal, newVal float64) (*Allocator, error) {
	d := al // a patch that changes nothing writes nothing: it only checks
	if !num.IsZero(oldVal - newVal) {
		c := *al
		c.aCols, c.aVals, c.cols = slices.Clone(al.aCols), slices.Clone(al.aVals), slices.Clone(al.cols)
		d = &c
	}
	if err := d.PatchAgreement(from, to, oldVal, newVal); err != nil {
		return nil, err
	}
	return d, nil
}

// PatchAgreement changes A[from][to] from oldVal to newVal in the
// receiver, under the ownership rule above (making A if there was none). A
// never enters the closure: a value-only change replaces column `to` and
// keeps every other cache, numbers being rebound per solve, and a flip
// between zero and positive also drops the skeletons linearizing the entry.
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
	if (oldVal > 0) != (newVal > 0) {
		// u_{from,to} sits in every skeleton with a perturb_to row: all but
		// requester `to`'s own, which under ComponentLP goes too, its live
		// set being column `to`'s pattern.
		kept := al.skel[to].Load()
		al.skel = make([]atomic.Pointer[planSkeleton], n)
		if !al.cfg.ComponentLP {
			al.skel[to].Store(kept)
		}
	}
	return nil
}

// Grow derives an allocator extended by extra principals holding no
// agreements, whose rows and columns are empty: it copies O(n) slice
// headers and shares every row and column with the receiver, with no
// enumeration, and drops every skeleton, each model's variable count
// changing. (An Approx closure whose clamped level rises recomputes its
// rows, and the caches are rebuilt from them as a constructor would.)
func (al *Allocator) Grow(extra int) *Allocator {
	if extra <= 0 {
		return al
	}
	n := al.n + extra
	clo := al.clo.Grow(extra)
	aCols, aVals := grown(al.aCols, n), grown(al.aVals, n)
	if al.cfg.Approx && clo.Level() != al.clo.Level() {
		return finishAllocator(n, clo, aCols, aVals, al.hasA, al.cfg)
	}
	return &Allocator{n: n, cfg: al.cfg, hasA: al.hasA, clo: clo, aCols: aCols, aVals: aVals,
		flow: grown(al.flow, n), cols: grown(al.cols, n),
		skel: make([]atomic.Pointer[planSkeleton], n), pool: al.pool}
}

// grown copies xs into a slice of n elements, the new tail zero.
func grown[T any](xs []T, n int) []T {
	out := make([]T, n)
	copy(out, xs)
	return out
}

// Share returns S[from][to], the old value callers pass back into
// SetShare: a binary search over the closure's row `from`.
func (al *Allocator) Share(from, to int) float64 { return al.clo.Edge(from, to) }

// Agreement returns A[from][to], zero when the allocator holds no A.
func (al *Allocator) Agreement(from, to int) float64 { return al.aAt(from, to) }
