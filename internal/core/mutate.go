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
// PatchAgreement write into the receiver itself — the grm server's path —
// so their receiver needs one owner, planning under its writes' lock, and
// no allocator in use may share a table it writes: PatchShare's are the
// closure's, flow and cols, PatchAgreement's A's and cols. SetShare's
// result shares A's with its receiver, SetAgreement's the closure and flow;
// a constructor's or Grow's, none. After an error the receiver is partly
// patched and must be discarded.
//
// The ownership rule. A pattern — an S, T or K row's column list, a
// column's idx — never changes once published: full-formulation skeletons
// alias col.idx. A value array — an S or T row's values, a column's k and
// a — is written in place by its owner alone, and ownership is tracked:
// each closure and allocator holds an epoch from a process-wide counter,
// each row and column the epoch of whichever allocated its values, and
// every derivation (Clone, UpdateEdge, UpdateRow, SetShare, SetAgreement,
// Grow) gives both sides fresh epochs, so neither owns what they share.
// Constructor input and a build's column arena carry epoch 0, owned by
// none. What a write allocates for what it changes (A rows, and K rows the
// overdraft cap copies, are always laid out anew):
//
//	          values moved, owned  values moved, not owned    pattern flipped
//	S, T row  nothing              a value slice, cols shared a new row
//	columns   nothing              one int32 and one float64 arena for them all
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
//	cols      K and A columns (pattern    the moved cells written  columns no moved cell
//	          and values)                 over, or merged anew     falls in
//	skel[r]   K and A patterns only:      one fresh slice of nil   every change that flips
//	          every number is rebound     slots; r's next Plan     no K or A cell between
//	          per solve                   builds it in one pass    zero and nonzero
//
// A mutated allocator plans bit-identically to a fresh NewAllocator over
// the mutated matrices (pinned by the incremental equivalence tests):
// shared rows are identical, patched rows replay NewAllocator's per-row
// computations, and a kept skeleton is rebound to the fresh numbers.

// epochs hands out allocator epochs from 1.
var epochs atomic.Uint64

// renew gives al a fresh epoch, atomically: derivations of one receiver
// may run concurrently (a patch, owning its receiver, reads it plainly).
func (al *Allocator) renew() { atomic.StoreUint64(&al.epoch, epochs.Add(1)) }

// fork returns a copy of al sharing every table, both taking fresh epochs.
// It copies field by field: reading al.epoch would race with a renewal.
func (al *Allocator) fork() *Allocator {
	d := &Allocator{n: al.n, aCols: al.aCols, aVals: al.aVals, hasA: al.hasA, flow: al.flow, cfg: al.cfg,
		cols: al.cols, skel: al.skel, clo: al.clo, pool: al.pool}
	al.renew()
	d.renew()
	return d
}

// SetShare derives an allocator with the relative agreement S[from][to]
// changed from oldVal to newVal: PatchShare on a copy owning the closure,
// flow and column tables. A no-op change returns the receiver.
func (al *Allocator) SetShare(from, to int, oldVal, newVal float64) (*Allocator, error) {
	d := al // a patch that changes nothing writes nothing: it only checks
	if !num.IsZero(oldVal - newVal) {
		d = al.fork()
		d.clo, d.flow, d.cols = al.clo.Clone(), slices.Clone(al.flow), slices.Clone(al.cols)
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
// source is copied. A column d owns whose moved rows all stay listed is
// written over (overwrite); the others come out of one int32 and one
// float64 arena, sized first, and are d's. The old columns stay shared,
// unmodified.
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
	out := column{idx: make([]int32, 0, size), k: vals[:0:size], a: vals[size:size], epoch: d.epoch}
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

// overwrite writes moves, all in column c, over the column's values if d
// owns it and every moved row but the diagonal stays listed, so its idx
// holds, and reports whether it did.
func (d *Allocator) overwrite(c int, moves []cellMove) bool {
	col := d.cols[c]
	if col.epoch != d.epoch {
		return false
	}
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

// applyClosureDelta patches the flow rows, the columns and the skeleton
// table after the closure changed T rows ps.rows (ascending), which held
// columns ps.old and values ps.vals, per the dependency table above.
func (d *Allocator) applyClosureDelta(ps *patchScratch) {
	// Each changed T row gets its K row rebuilt (an uncapped one is the T
	// row's own slice) and its conn re-summed in NewAllocator's order, the
	// old K row read from its slot first — or, where it aliased a T row the
	// closure wrote over, from the values handed back; the cells whose
	// capped value moved decide all downstream, and a row whose columns
	// moved flipped a cell.
	moves, flipped, off := ps.moves[:0], false, 0
	for x, r := range ps.rows {
		oc, ov := ps.old[x], d.flow[r].k
		if _, tv := d.clo.FlowRow(r); sameArray(ov, tv) {
			ov = ps.vals[off : off+len(oc)]
		}
		off += len(oc)
		d.flow[r] = flowRowOf(d.clo, r)
		cols, _, kv := d.FlowRow(r)
		moves, flipped = rowMoves(moves, r, oc, ov, cols, kv), flipped || !slices.Equal(oc, cols)
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
		d = al.fork()
		d.aCols, d.aVals, d.cols = slices.Clone(al.aCols), slices.Clone(al.aVals), slices.Clone(al.cols)
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
	al.renew()
	clo := al.clo.Grow(extra)
	aCols, aVals := grown(al.aCols, n), grown(al.aVals, n)
	if al.cfg.Approx && clo.Level() != al.clo.Level() {
		return finishAllocator(n, clo, aCols, aVals, al.hasA, al.cfg)
	}
	return &Allocator{epoch: epochs.Add(1), n: n, cfg: al.cfg, hasA: al.hasA, clo: clo, aCols: aCols, aVals: aVals,
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
