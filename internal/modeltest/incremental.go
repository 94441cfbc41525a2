package modeltest

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/num"
)

// PlanIncrementalEquivalence (the "plan-incremental" property): an
// allocator evolved in place through the served mutators — PatchShare edge
// updates, PatchAgreement quantity updates, availability deltas, moves of
// the values those made, and the revocation of each (the cell set back to
// exactly zero, which is what the GRM's revoke patch does when no ticket
// survives) — must be indistinguishable from a freshly built NewAllocator
// over the mutated matrices at every step of the schedule: same
// capacities, same plan takes, same θ, bit for bit. Value moves flip no
// cell, so the allocator writes over the values of the rows and columns
// earlier steps laid out; each cycle plans one requester throughout, so
// the plans after the moves build their LP into the workspace the plans
// before them used, from what the moves left. At one
// step, picked from the graph, the schedule also registers a principal:
// Grow(1) extends the allocator in place, and its next relative step shares
// from the new principal and its next absolute step to it, so the patches
// of grown tables are checked against a fresh build at every later step.
// The schedule is derived deterministically from the
// graph itself (row-major pair walk, kind cycling by step), so replaying a
// failing seed reruns the identical schedule and the shrinker minimizes the
// divergent schedule simply by minimizing the graph; the check stops at the
// first divergent step, so the reported step index is the minimal failing
// prefix.

// incrementalCycle is the number of step kinds; maxIncrementalSteps bounds
// the schedule per graph. Divergence from a patched closure or a stale
// cache shows up within a handful of mutations, and CheckGraph runs on
// thousands of generated graphs: fourteen steps run every kind twice.
const (
	incrementalCycle    = 7
	maxIncrementalSteps = 2 * incrementalCycle
)

func (c *checker) checkIncrementalPlan() error {
	if c.mut != MutNone {
		// The injected bugs live in the planner stand-ins, not in the
		// mutator path; rerunning the schedule under them tests nothing.
		return nil
	}
	n := c.g.N
	s := cloneSquare(c.g.S)
	var a [][]float64
	if c.g.A != nil {
		a = cloneSquare(c.g.A)
	}
	v := append([]float64(nil), c.g.V...)
	cur, err := core.NewAllocator(sparse(s), sparse(a), core.Config{Level: c.g.Level})
	if err != nil {
		return fmt.Errorf("allocator construction: %w", err)
	}
	if n < 2 {
		return nil // no pair to edit
	}
	// The registration: Grow(1) at step growAt, in the first cycle, adds an
	// unconnected principal that the next relative and absolute steps, both
	// within the schedule, connect.
	growAt := int(math.Float64bits(v[0]) % uint64(min(incrementalCycle, n*(n-1))))
	relNew, absNew := false, false

	step := 0
	relI, relJ, absI, absJ := -1, -1, -1, -1 // the last pairs steps 0 and 1 edited
	// patch makes one in-place mutation, refusing like the schedule does.
	patch := func(what string, i, j int, old, next float64, mutate func(i, j int, old, next float64) error) error {
		if err := mutate(i, j, old, next); err != nil {
			return fmt.Errorf("step %d: %s(%d, %d, %g, %g): %w", step, what, i, j, old, next, err)
		}
		return nil
	}
	for i := 0; i < n && step < maxIncrementalSteps; i++ {
		for j := 0; j < n && step < maxIncrementalSteps; j++ {
			if i == j {
				continue
			}
			if step == growAt {
				cur.Grow(1)
				n++
				s, a, v = growSquare(s, n), growSquare(a, n), append(v, 1)
				relNew, absNew = true, true
			}
			// other is the principal of the pair that is not the registered one.
			other := i
			if i == n-1 {
				other = j
			}
			var err error
			switch step % incrementalCycle {
			case 0: // relative edge update: halve a live edge or create one
				i, j := i, j
				if relNew { // from the registered principal
					i, j, relNew = n-1, other, false
				}
				next := 0.25
				if s[i][j] > 0 {
					next = s[i][j] / 2
				}
				err = patch("PatchShare", i, j, s[i][j], next, cur.PatchShare)
				s[i][j], relI, relJ = next, i, j
			case 1: // absolute agreement update (creates A when absent)
				if a == nil {
					a = zeroMatrix(n)
				}
				i, j := i, j
				if absNew { // to the registered principal
					i, j, absNew = other, n-1, false
				}
				err = patch("PatchAgreement", i, j, a[i][j], a[i][j]+0.5, cur.PatchAgreement)
				a[i][j], absI, absJ = a[i][j]+0.5, i, j
			case 2: // availability delta: no mutator, but the planner replans
				v[i] += 1
			case 3: // move the value of the relative edge step 0 last edited
				err = patch("PatchShare", relI, relJ, s[relI][relJ], s[relI][relJ]*0.75, cur.PatchShare)
				s[relI][relJ] *= 0.75
			case 4: // move the value of the absolute agreement step 1 last edited
				err = patch("PatchAgreement", absI, absJ, a[absI][absJ], a[absI][absJ]+0.25, cur.PatchAgreement)
				a[absI][absJ] += 0.25
			case 5: // revoke the relative edge: the entry leaves S
				err = patch("PatchShare", relI, relJ, s[relI][relJ], 0, cur.PatchShare)
				s[relI][relJ] = 0
			default: // revoke the absolute agreement
				err = patch("PatchAgreement", absI, absJ, a[absI][absJ], 0, cur.PatchAgreement)
				a[absI][absJ] = 0
			}
			if err != nil {
				return err
			}
			requester := step / incrementalCycle % n
			if err := compareIncremental(cur, s, a, v, c.g.Level, requester); err != nil {
				return fmt.Errorf("incremental allocator diverged from fresh rebuild at step %d: %w", step, err)
			}
			if err := checkSparseRows(cur); err != nil {
				return fmt.Errorf("after step %d: %w", step, err)
			}
			step++
		}
	}
	return nil
}

// growSquare copies an n×n matrix into a larger nn×nn one, zero-extending
// every row and appending zero rows; nil stays nil.
func growSquare(m [][]float64, nn int) [][]float64 {
	if m == nil {
		return nil
	}
	out := zeroMatrix(nn)
	for i := range m {
		copy(out[i], m[i])
	}
	return out
}

// compareIncremental pins the evolved allocator against a from-scratch
// NewAllocator over the same matrices: the agreements it holds, every flow
// row it stores, capacities and one full plan must agree bit for bit (the
// incremental paths replay NewAllocator's exact per-row arithmetic, so this
// is equality, not tolerance).
func compareIncremental(cur *core.Allocator, s, a [][]float64, v []float64, level, requester int) error {
	fresh, err := core.NewAllocator(sparse(s), sparse(a), core.Config{Level: level})
	if err != nil {
		return fmt.Errorf("fresh rebuild refused matrices the mutators accepted: %w", err)
	}
	for i := range s {
		for j := range s[i] {
			if cur.Share(i, j) != s[i][j] || cur.Agreement(i, j) != fresh.Agreement(i, j) {
				return fmt.Errorf("S[%d][%d], A[%d][%d] = %g, %g incremental, %g, %g fresh",
					i, j, i, j, cur.Share(i, j), cur.Agreement(i, j), s[i][j], fresh.Agreement(i, j))
			}
		}
		gc, gt, gk := cur.FlowRow(i)
		wc, wt, wk := fresh.FlowRow(i)
		if !slices.Equal(gc, wc) || !sameFloats(gt, wt) || !sameFloats(gk, wk) {
			return fmt.Errorf("flow row %d: columns %v, T %v, K %v incremental, %v, %v, %v fresh", i, gc, gt, gk, wc, wt, wk)
		}
	}
	gotCaps := cur.Capacities(v)
	wantCaps := fresh.Capacities(v)
	for i := range wantCaps {
		if gotCaps[i] != wantCaps[i] {
			return fmt.Errorf("C[%d] = %g incremental, %g fresh", i, gotCaps[i], wantCaps[i])
		}
	}
	amount := wantCaps[requester] * 0.5
	if amount <= 0 {
		return nil
	}
	got, gotErr := PlanDense(cur, v, requester, amount)
	want, wantErr := PlanDense(fresh, v, requester, amount)
	if (gotErr == nil) != (wantErr == nil) {
		//lint:ignore sharingvet/errwrap property-failure description, not error propagation; one err is nil
		return fmt.Errorf("Plan(requester=%d, amount=%g): incremental err %v, fresh err %v", requester, amount, gotErr, wantErr)
	}
	if gotErr != nil {
		return nil
	}
	if got.Theta != want.Theta {
		return fmt.Errorf("Plan(requester=%d, amount=%g): θ = %g incremental, %g fresh", requester, amount, got.Theta, want.Theta)
	}
	for i := range want.Take {
		if got.Take[i] != want.Take[i] {
			return fmt.Errorf("Plan(requester=%d, amount=%g): take[%d] = %g incremental, %g fresh",
				requester, amount, i, got.Take[i], want.Take[i])
		}
	}
	return nil
}

// sameFloats reports whether two slices hold the same values, bit for bit.
func sameFloats(x, y []float64) bool {
	return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
}

// cloneSquare deep-copies a square matrix.
func cloneSquare(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i := range m {
		out[i] = append([]float64(nil), m[i]...)
	}
	return out
}

// checkSparseRows (the "sparse-rows" property, also run on every
// allocator the incremental schedule derives): each stored coefficient
// row is strictly ascending in its columns, holds no exact zero, and its
// K values are the T slice itself exactly when no T entry exceeds the
// overdraft cap — the representation invariants every sparse pass relies
// on, which a mutator that patched a row in the wrong form would break
// while still planning correctly for a while.
func checkSparseRows(al *core.Allocator) error {
	for i := 0; i < al.N(); i++ {
		cols, t, k := al.FlowRow(i)
		if len(t) != len(cols) || len(k) != len(cols) {
			return fmt.Errorf("row %d: %d columns, %d T values, %d K values", i, len(cols), len(t), len(k))
		}
		capped := false
		for x, j := range cols {
			if x > 0 && cols[x-1] >= j {
				return fmt.Errorf("row %d: columns %d, %d not strictly ascending", i, cols[x-1], j)
			}
			if num.IsZero(t[x]) || num.IsZero(k[x]) {
				return fmt.Errorf("row %d: stored zero at column %d (T=%g, K=%g)", i, j, t[x], k[x])
			}
			want := t[x]
			if want > 1 {
				want, capped = 1, true
			}
			if k[x] != want {
				return fmt.Errorf("row %d: K[%d] = %g, want min(T, 1) = %g", i, j, k[x], want)
			}
		}
		if len(cols) > 0 && (&k[0] == &t[0]) == capped {
			return fmt.Errorf("row %d: K aliases T = %v with a capped entry = %v", i, !capped, capped)
		}
	}
	return nil
}
