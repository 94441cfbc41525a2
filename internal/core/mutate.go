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

// This file implements incremental Allocator derivation: agreement
// mutations that patch S/A through the delta transitive closure and
// invalidate only the caches the change can actually reach, instead of
// paying a full NewAllocator rebuild (whose exact chain enumeration is
// the dominant cost at scale).
//
// Mutators are copy-on-write: they return a derived *Allocator, a copy of
// the receiver's struct that shares every unchanged row slice, its skeleton
// table and its workspace pool, and swaps in what the change moved — so the
// receiver stays valid and in-flight Plans against it keep their consistent
// snapshot. (The grm server plans and swaps its planner pointer under one
// state lock, so it never has such a plan in flight.)
//
// What each cache depends on, what a mutation pays to refresh it, and
// when it survives. Every cost is in stored entries of the rows and
// columns that moved; only the slice-header copies are O(n), one table
// per structure:
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
// A derived allocator's Plan output is bit-identical to a freshly built
// NewAllocator over the mutated matrices (pinned by the incremental
// equivalence tests): shared rows are trivially identical, patched rows
// replay NewAllocator's exact per-row computations, and a kept skeleton is
// rebound to the fresh build's numbers.

// SetShare derives an allocator with the relative agreement S[from][to]
// changed from oldVal to newVal. oldVal must match the current entry
// (the staleness check catches callers whose shadow copy of S drifted).
// The transitive closure is patched through the delta path; a mutation
// that would densify the graph past the exact-enumeration budget is
// refused with transitive.ErrBudget, exactly as a from-scratch
// NewAllocator would refuse it. A no-op change returns the receiver.
func (al *Allocator) SetShare(from, to int, oldVal, newVal float64) (*Allocator, error) {
	clo, changed, err := al.clo.UpdateEdge(from, to, oldVal, newVal)
	if err != nil {
		return nil, fmt.Errorf("core: SetShare: %w", err)
	}
	if clo == al.clo {
		return al, nil
	}
	// S itself lives inside the closure's CSR rows; UpdateEdge already
	// patched it copy-on-write, so the allocator carries no second copy.
	d := *al
	d.clo = clo
	d.applyClosureDelta(al, changed)
	return &d, nil
}

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

// movesPool recycles applyClosureDelta's list of moved cells.
var movesPool = sync.Pool{New: func() any { return new([]cellMove) }}

// replaceColumns merges moves — sorted by column, ascending by row within
// one — into d's columns: a moved row takes its new K value and d's current
// A value and stays listed only while one of them is nonzero; every other
// source is copied. The new columns come out of one int32 and one float64
// arena, sized first, so a mutation pays the column table and two arenas
// however many columns it moves; the old columns stay shared with ancestor
// allocators, unmodified.
func (d *Allocator) replaceColumns(moves []cellMove) {
	d.cols = slices.Clone(d.cols)
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
// table of a derived allocator after its closure moved on the given T rows
// (ascending). Caches are invalidated per the dependency table above;
// everything the change cannot reach keeps sharing memory with prev.
func (d *Allocator) applyClosureDelta(prev *Allocator, changed []int) {
	if len(changed) == 0 {
		return
	}
	// Every replaced T row gets its K row rebuilt (its columns may have
	// moved, and an uncapped K row must be the new T row's own slice) and
	// its conn re-summed in NewAllocator's order; the cells whose capped
	// value moved decide everything downstream, and a row whose columns
	// moved flipped a cell.
	d.flow = slices.Clone(prev.flow)
	buf := movesPool.Get().(*[]cellMove)
	defer movesPool.Put(buf)
	moves, flipped := (*buf)[:0], false
	for _, r := range changed {
		d.flow[r] = flowRowOf(d.clo, r)
		cols, _, kv := d.FlowRow(r)
		oc, _, ov := prev.FlowRow(r)
		moves, flipped = rowMoves(moves, r, oc, ov, cols, kv), flipped || !slices.Equal(oc, cols)
	}
	*buf = moves
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
// A[from][to] changed from oldVal to newVal (growing an all-zero A if
// the allocator had none). Absolute agreements never enter the closure,
// so no enumeration happens at all: a value-only change (both sides
// positive) replaces column `to` and shares every other cache — its
// numbers are rebound per solve — while a sparsity flip (zero ↔ positive)
// also drops the skeletons that linearize the entry.
func (al *Allocator) SetAgreement(from, to int, oldVal, newVal float64) (*Allocator, error) {
	n := al.n
	if from < 0 || from >= n || to < 0 || to >= n {
		return nil, fmt.Errorf("core: SetAgreement(%d, %d): index out of range for n=%d", from, to, n)
	}
	if newVal < 0 {
		return nil, fmt.Errorf("core: SetAgreement(%d, %d): value %g must be non-negative", from, to, newVal)
	}
	cur := al.aAt(from, to)
	if !num.IsZero(cur - oldVal) {
		return nil, fmt.Errorf("core: SetAgreement(%d, %d): stale old value %g, allocator holds %g", from, to, oldVal, cur)
	}
	if num.IsZero(oldVal - newVal) {
		return al, nil
	}
	d := *al
	d.hasA = true
	d.aCols, d.aVals = slices.Clone(al.aCols), slices.Clone(al.aVals)
	d.aCols[from], d.aVals[from] = transitive.SetEntry(al.aCols[from], al.aVals[from], to, newVal)
	if from != to {
		// Column `to` caches A's values, so any value move stales it.
		d.replaceColumns([]cellMove{{c: int32(to), r: int32(from), k: d.kAt(from, to)}})
	}
	if (oldVal > 0) != (newVal > 0) && from != to {
		// The u_{from,to} linearization appears or disappears: that entry
		// sits in every skeleton whose perturb_to row exists, i.e. all but
		// requester `to`'s own (diagonal entries are read by nothing).
		// Under ComponentLP skeleton `to`'s live set is column `to`'s
		// sparsity pattern, which this flip just changed, so it goes too.
		d.skel = make([]atomic.Pointer[planSkeleton], n)
		if !d.cfg.ComponentLP {
			d.skel[to].Store(al.skel[to].Load())
		}
	}
	return &d, nil
}

// Grow derives an allocator extended by extra principals holding no
// agreements. A fresh principal has no edges, so its T, K and A rows and
// its columns are empty and its conn is zero: the derived allocator
// copies O(n) slice headers and shares every row and column with the
// receiver — no chain enumeration, no pass over stored entries. All
// skeletons are invalidated: every model's variable count changes. (An
// Approx closure whose clamped level rises recomputes its rows, and the
// caches are then rebuilt from them as a constructor would.)
func (al *Allocator) Grow(extra int) *Allocator {
	if extra <= 0 {
		return al
	}
	n := al.n + extra
	clo := al.clo.Grow(extra)
	// A's sparse rows zero-extend for free: new principals hold no
	// agreements, so their rows stay empty and old rows are shared.
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

// Share returns the current relative agreement entry S[from][to] — the
// old-value witness callers pass back into SetShare. S lives in the
// closure's CSR rows; Edge is a binary search over row `from`.
func (al *Allocator) Share(from, to int) float64 { return al.clo.Edge(from, to) }

// Agreement returns the current absolute agreement entry A[from][to]
// (zero when the allocator holds no absolute agreements).
func (al *Allocator) Agreement(from, to int) float64 { return al.aAt(from, to) }
