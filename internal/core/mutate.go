package core

import (
	"cmp"
	"fmt"
	"slices"
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
// Mutators are copy-on-write: they return a derived *Allocator sharing
// every unchanged row slice and skeleton with the receiver, which stays
// valid — in-flight Plans against the old allocator keep their consistent
// snapshot. (The grm server plans and swaps its planner pointer under one
// state lock, so it never has such a plan in flight.)
//
// What each cache depends on, what a mutation pays to refresh it, and
// when it survives. Every cost is in stored entries of the rows and
// columns that moved; only the slice-header copies are O(n):
//
//	cache     depends on                  refreshed by             survives
//	───────── ─────────────────────────── ──────────────────────── ─────────────────────────
//	clo (T)   S values, level             re-enumerating the       rows that cannot reach
//	                                      affected rows            the edited edge's source
//	K         T rows (values capped at 1, capRow per changed T     rows whose T row held;
//	          columns shared with T)      row; aliases the T row   K rows alias T rows
//	                                      unless an entry > 1      unless the cap bites
//	conn      K rows (row sums)           one walk of the row      rows whose K row held
//	colIdx,   K and A columns (pattern    one merge of the moved   columns no moved cell
//	colK,colA and values)                 cells, one arena a list  falls in
//	skel[r]   K values (all columns ≠ r), one fresh slice of nil   no K column ≠ r moved,
//	          conn (objective), A pattern slots; r's next Plan     conn unchanged, A
//	                                      builds it in one pass    pattern ≠ r same
//
// A derived allocator's Plan output is bit-identical to a freshly built
// NewAllocator over the mutated matrices (pinned by the incremental
// equivalence tests): shared rows are trivially identical, and patched
// rows replay NewAllocator's exact per-row computations.

// derive clones the allocator's slice headers and cache references so a
// mutator can swap individual entries without touching the receiver. The
// workspace pool is shared: a workspace re-clones any model whose skeleton
// the mutation rebuilt.
func (al *Allocator) derive() *Allocator {
	return &Allocator{
		n: al.n, aCols: al.aCols, aVals: al.aVals, hasA: al.hasA,
		k: al.k, cfg: al.cfg,
		conn: al.conn, colIdx: al.colIdx, colK: al.colK, colA: al.colA,
		skel: al.skel, clo: al.clo, pool: al.pool,
	}
}

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
	d := al.derive()
	d.clo = clo
	d.applyClosureDelta(al, changed)
	return d, nil
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

// replaceColumns merges moves — sorted by column, ascending by row within
// one — into d's column lists and returns how many columns it replaced: a
// moved row takes its new K value and d's current A value and stays listed
// only while one of them is nonzero; every other source is copied. The new
// columns come out of one arena per list, sized first, so a mutation pays
// three allocations however many columns it moves; the old slices stay
// shared with ancestor allocators, unmodified.
func (d *Allocator) replaceColumns(moves []cellMove) (cols int) {
	d.colIdx = append([][]int32(nil), d.colIdx...)
	d.colK = append([][]float64(nil), d.colK...)
	d.colA = append([][]float64(nil), d.colA...)
	size := len(moves)
	for x, mv := range moves {
		if x == 0 || mv.c != moves[x-1].c {
			size += len(d.colIdx[mv.c])
			cols++
		}
	}
	idx, ks, as := make([]int32, 0, size), make([]float64, 0, size), make([]float64, 0, size)
	for len(moves) > 0 {
		c, from := int(moves[0].c), len(idx)
		oi, ok, oa := d.colIdx[c], d.colK[c], d.colA[c]
		x := 0
		for ; len(moves) > 0 && int(moves[0].c) == c; moves = moves[1:] {
			mv := moves[0]
			for ; x < len(oi) && oi[x] < mv.r; x++ {
				idx, ks, as = append(idx, oi[x]), append(ks, ok[x]), append(as, oa[x])
			}
			if x < len(oi) && oi[x] == mv.r {
				x++
			}
			if av := d.aAt(int(mv.r), c); int(mv.r) != c && (!num.IsZero(mv.k) || !num.IsZero(av)) {
				idx, ks, as = append(idx, mv.r), append(ks, mv.k), append(as, av)
			}
		}
		idx, ks, as = append(idx, oi[x:]...), append(ks, ok[x:]...), append(as, oa[x:]...)
		// Full slice expressions: a column never grows into its neighbour.
		d.colIdx[c], d.colK[c], d.colA[c] = idx[from:len(idx):len(idx)], ks[from:len(ks):len(ks)], as[from:len(as):len(as)]
	}
	return cols
}

// applyClosureDelta patches K, conn, the column lists, and the skeleton
// cache of a derived allocator after its closure moved on the given T
// rows (ascending). Caches are invalidated per the dependency table
// above; everything the change cannot reach keeps sharing memory with
// prev.
func (d *Allocator) applyClosureDelta(prev *Allocator, changed []int) {
	if len(changed) == 0 {
		return
	}
	// Every replaced T row gets its K row rebuilt (its columns may have
	// moved, and an uncapped K row must be the new T row's own slice); the
	// cells whose capped value moved decide everything downstream.
	d.k = append([][]float64(nil), prev.k...)
	room := 0
	for _, r := range changed {
		cols, tv := d.clo.FlowRow(r)
		d.k[r] = capRow(tv)
		room += len(prev.k[r]) + len(cols) // a row cannot move more cells than both forms hold
	}
	moves := make([]cellMove, 0, room)
	kRows := make([]int, 0, len(changed))
	for _, r := range changed {
		cols, _, kv := d.FlowRow(r)
		oc, _, ov := prev.FlowRow(r)
		before := len(moves)
		if moves = rowMoves(moves, r, oc, ov, cols, kv); len(moves) > before {
			kRows = append(kRows, r)
		}
	}
	if len(kRows) == 0 {
		// The cap clamped the whole change away: K is value-identical, so
		// conn, the columns, and every skeleton survive.
		return
	}

	// conn rows are K row sums; recompute the moved ones in NewAllocator's
	// exact ascending-j order so shared skeletons stay bit-faithful.
	d.conn = append([]float64(nil), prev.conn...)
	connChanged := false
	for _, r := range kRows {
		cols, _, kv := d.FlowRow(r)
		c := connOf(r, cols, kv)
		if !num.IsZero(c - d.conn[r]) {
			connChanged = true
		}
		d.conn[r] = c
	}

	// A column whose cell moved — in value, not just in pattern, since
	// colK caches K values — is refreshed by merging its moved cells into
	// the old list. Rows were visited ascending, so a stable sort by
	// column leaves each column's cells ascending by row.
	slices.SortStableFunc(moves, func(a, b cellMove) int { return cmp.Compare(a.c, b.c) })
	valCols := d.replaceColumns(moves)

	// Skeleton r bakes −eps·conn (all rows) into its objective and every
	// K column except r into its constraint rows, so it survives only if
	// conn held still and the change stayed inside column r. (Under
	// ComponentLP the skeleton's live set is column r's sparsity pattern,
	// which a flip inside column r rewrites, so nothing survives.)
	d.skel = make([]atomic.Pointer[planSkeleton], d.n)
	if !connChanged && !d.cfg.ComponentLP && valCols == 1 {
		sole := moves[0].c
		d.skel[sole].Store(prev.skel[sole].Load())
	}
}

// SetAgreement derives an allocator with the absolute agreement
// A[from][to] changed from oldVal to newVal (growing an all-zero A if
// the allocator had none). Absolute agreements never enter the closure,
// so no enumeration happens at all: a value-only change (both sides
// positive) shares every cache — the cap_flow right-hand sides are
// rebound per solve — while a sparsity flip (zero ↔ positive) rebuilds
// column `to`'s index and the skeletons that linearize the new entry.
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
	d := al.derive()
	d.hasA = true
	d.aCols = append([][]int32(nil), al.aCols...)
	d.aVals = append([][]float64(nil), al.aVals...)
	d.aCols[from], d.aVals[from] = transitive.SetEntry(al.aCols[from], al.aVals[from], to, newVal)
	if from != to {
		// colA[to] caches A's column values, so any value move stales it.
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
	return d, nil
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
	d := &Allocator{n: n, cfg: al.cfg, hasA: al.hasA, clo: clo, aCols: aCols, aVals: aVals}
	d.k, d.conn = grown(al.k, n), grown(al.conn, n)
	d.colIdx, d.colK, d.colA = grown(al.colIdx, n), grown(al.colK, n), grown(al.colA, n)
	d.skel = make([]atomic.Pointer[planSkeleton], n)
	d.pool = al.pool
	return d
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
