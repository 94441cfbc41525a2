package modeltest

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/num"
)

// PlanIncrementalEquivalence (the "plan-incremental" property): an
// allocator evolved through the incremental mutators — SetShare edge
// updates, SetAgreement quantity updates, availability deltas, and the
// revocation of each (the cell set back to exactly zero, which is what
// the GRM's revoke patch does when no ticket survives) — must be
// indistinguishable from a freshly built NewAllocator over the mutated
// matrices at every step of the schedule: same capacities, same plan
// takes, same θ, bit for bit. The schedule is derived deterministically
// from the graph itself (row-major pair walk, kind cycling by step), so
// replaying a failing seed reruns the identical schedule and the shrinker
// minimizes the divergent schedule simply by minimizing the graph; the
// check stops at the first divergent step, so the reported step index is
// the minimal failing prefix.

// maxIncrementalSteps bounds the schedule per graph; divergence from a
// patched closure or a stale cache shows up within a handful of
// mutations, and CheckGraph runs on thousands of generated graphs. Ten
// steps run every kind of the five-step cycle twice.
const maxIncrementalSteps = 10

func (c *checker) checkIncrementalPlan() error {
	if c.mut != MutNone {
		// The injected bugs live in the planner stand-ins, not in the
		// mutator path; rerunning the schedule under them tests nothing.
		return nil
	}
	n := c.g.N
	cur := c.al
	s := cloneSquare(c.g.S)
	var a [][]float64
	if c.g.A != nil {
		a = cloneSquare(c.g.A)
	}
	v := append([]float64(nil), c.g.V...)

	step := 0
	relI, relJ, absI, absJ := -1, -1, -1, -1 // the last pairs steps 0 and 1 edited
	for i := 0; i < n && step < maxIncrementalSteps; i++ {
		for j := 0; j < n && step < maxIncrementalSteps; j++ {
			if i == j {
				continue
			}
			switch step % 5 {
			case 0: // relative edge update: halve a live edge or create one
				old := s[i][j]
				next := 0.25
				if old > 0 {
					next = old / 2
				}
				d, err := cur.SetShare(i, j, old, next)
				if err != nil {
					return fmt.Errorf("step %d: SetShare(%d, %d, %g, %g): %w", step, i, j, old, next, err)
				}
				s[i][j] = next
				cur = d
				relI, relJ = i, j
			case 1: // absolute agreement update (creates A when absent)
				old := 0.0
				if a != nil {
					old = a[i][j]
				}
				next := old + 0.5
				d, err := cur.SetAgreement(i, j, old, next)
				if err != nil {
					return fmt.Errorf("step %d: SetAgreement(%d, %d, %g, %g): %w", step, i, j, old, next, err)
				}
				if a == nil {
					a = zeroMatrix(n)
				}
				a[i][j] = next
				cur = d
				absI, absJ = i, j
			case 2: // availability delta: no mutator, but the planner replans
				v[i] += 1
			case 3: // revoke the relative edge step 0 last edited: the entry leaves S
				d, err := cur.SetShare(relI, relJ, s[relI][relJ], 0)
				if err != nil {
					return fmt.Errorf("step %d: SetShare(%d, %d, %g, 0): %w", step, relI, relJ, s[relI][relJ], err)
				}
				s[relI][relJ] = 0
				cur = d
			default: // revoke the absolute agreement step 1 last edited
				d, err := cur.SetAgreement(absI, absJ, a[absI][absJ], 0)
				if err != nil {
					return fmt.Errorf("step %d: SetAgreement(%d, %d, %g, 0): %w", step, absI, absJ, a[absI][absJ], err)
				}
				a[absI][absJ] = 0
				cur = d
			}
			if err := compareIncremental(cur, s, a, v, c.g.Level, step%n); err != nil {
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

// compareIncremental pins the evolved allocator against a from-scratch
// NewAllocator over the same matrices: capacities and one full plan must
// agree bit for bit (the incremental paths replay NewAllocator's exact
// per-row arithmetic, so this is equality, not tolerance).
func compareIncremental(cur *core.Allocator, s, a [][]float64, v []float64, level, requester int) error {
	fresh, err := core.NewAllocator(s, a, core.Config{Level: level})
	if err != nil {
		return fmt.Errorf("fresh rebuild refused matrices the mutators accepted: %w", err)
	}
	gotCaps := cur.Capacities(v)
	wantCaps := fresh.Capacities(v)
	for i := range wantCaps {
		//lint:ignore sharingvet/floateq incremental results are pinned bit-identical to the rebuild
		if gotCaps[i] != wantCaps[i] {
			return fmt.Errorf("C[%d] = %g incremental, %g fresh", i, gotCaps[i], wantCaps[i])
		}
	}
	amount := wantCaps[requester] * 0.5
	if amount <= 0 {
		return nil
	}
	got, gotErr := cur.Plan(v, requester, amount)
	want, wantErr := fresh.Plan(v, requester, amount)
	if (gotErr == nil) != (wantErr == nil) {
		//lint:ignore sharingvet/errwrap property-failure description, not error propagation; one err is nil
		return fmt.Errorf("Plan(requester=%d, amount=%g): incremental err %v, fresh err %v", requester, amount, gotErr, wantErr)
	}
	if gotErr != nil {
		return nil
	}
	//lint:ignore sharingvet/floateq incremental results are pinned bit-identical to the rebuild
	if got.Theta != want.Theta {
		return fmt.Errorf("Plan(requester=%d, amount=%g): θ = %g incremental, %g fresh", requester, amount, got.Theta, want.Theta)
	}
	for i := range want.Take {
		//lint:ignore sharingvet/floateq incremental results are pinned bit-identical to the rebuild
		if got.Take[i] != want.Take[i] || got.NewV[i] != want.NewV[i] {
			return fmt.Errorf("Plan(requester=%d, amount=%g): take[%d] = (%g, %g) incremental, (%g, %g) fresh",
				requester, amount, i, got.Take[i], got.NewV[i], want.Take[i], want.NewV[i])
		}
	}
	return nil
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
			//lint:ignore sharingvet/floateq K is the exact elementwise cap of T
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
