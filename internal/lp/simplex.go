package lp

import (
	"fmt"
	"math"

	"repro/internal/num"
)

const (
	// pivotTol is the smallest acceptable pivot element magnitude.
	pivotTol = 1e-9
	// feasTol is the feasibility / optimality tolerance.
	feasTol = 1e-7
	// stallLimit is the number of non-improving pivots tolerated before
	// the solver switches from Dantzig to Bland's anti-cycling rule.
	stallLimit = 64
)

// tableau is a dense simplex tableau over a standardForm: it pivots the
// form's constraint matrix and right-hand side in place, and keeps the
// reduced-cost row and the current basis.
type tableau struct {
	sf     *standardForm
	obj    []float64 // n reduced costs
	objRHS float64   // -(current objective value)
	basis  []int
	banned []bool // columns barred from entering (artificials in phase 2)
	nz     []int  // the pivot row's nonzero columns, scratch for pivot
	pivots int
}

// reset (re)initializes the tableau for a standard form, reusing the
// buffers of any previous solve that fit.
func (t *tableau) reset(sf *standardForm) {
	t.sf = sf
	t.obj = zeroed(t.obj, sf.n)
	t.basis = append(t.basis[:0], sf.basis...)
	t.banned = zeroed(t.banned, sf.n)
	t.objRHS, t.pivots = 0, 0
}

// setObjective loads per-column costs into the reduced-cost row and prices
// out the current basic variables.
func (t *tableau) setObjective(cost []float64) {
	copy(t.obj, cost)
	t.objRHS = 0
	for r, bc := range t.basis {
		c := cost[bc]
		if num.IsZero(c) {
			continue
		}
		for j := range t.obj {
			t.obj[j] -= c * t.sf.a[r][j]
		}
		t.objRHS -= c * t.sf.b[r]
	}
}

// objective returns the current value of the loaded objective.
func (t *tableau) objective() float64 { return -t.objRHS }

// pivot performs a basis exchange: column enter becomes basic in row leave.
// Rows are updated over the leaving row's nonzero columns only: where it
// holds an exact zero the update would subtract f·0, which changes at most
// the sign of a zero, and the solver neither compares nor divides in a way
// that tells the two zeros apart.
func (t *tableau) pivot(leave, enter int) {
	a, b := t.sf.a, t.sf.b
	rowL := a[leave]
	inv := 1 / rowL[enter]
	t.nz = t.nz[:0]
	for j, v := range rowL {
		if !num.IsZero(v) {
			rowL[j] = v * inv
			t.nz = append(t.nz, j)
		}
	}
	b[leave] *= inv
	for r, row := range a {
		f := row[enter]
		if r == leave || num.IsZero(f) {
			continue
		}
		for _, j := range t.nz {
			row[j] -= f * rowL[j]
		}
		b[r] -= f * b[leave]
		if b[r] < 0 && b[r] > -feasTol {
			b[r] = 0
		}
	}
	if f := t.obj[enter]; !num.IsZero(f) {
		for _, j := range t.nz {
			t.obj[j] -= f * rowL[j]
		}
		t.objRHS -= f * b[leave]
	}
	t.basis[leave] = enter
	t.pivots++
}

// chooseEnter selects the entering column: Dantzig's most-negative reduced
// cost, or Bland's smallest-index rule when bland is set. Returns -1 when
// the current basis is optimal.
func (t *tableau) chooseEnter(bland bool) int {
	enter := -1
	best := -feasTol
	for j, rc := range t.obj {
		if t.banned[j] {
			continue
		}
		if rc < -feasTol {
			if bland {
				return j
			}
			if rc < best {
				best = rc
				enter = j
			}
		}
	}
	return enter
}

// chooseLeave runs the minimum-ratio test for the entering column. Returns
// -1 if the column is unbounded below. Ties are broken by the smallest
// basis index, which together with Bland's entering rule guarantees
// termination.
func (t *tableau) chooseLeave(enter int) int {
	leave := -1
	bestRatio := math.Inf(1)
	for r, row := range t.sf.a {
		coef := row[enter]
		if coef <= pivotTol {
			continue
		}
		ratio := t.sf.b[r] / coef
		if ratio < bestRatio-feasTol ||
			(ratio < bestRatio+feasTol && (leave == -1 || t.basis[r] < t.basis[leave])) {
			bestRatio = ratio
			leave = r
		}
	}
	return leave
}

// iterate runs simplex pivots on the currently loaded objective until
// optimality, unboundedness, or the iteration budget is exhausted.
func (t *tableau) iterate(maxPivots int) Status {
	stall := 0
	bland := false
	prev := t.objective()
	for t.pivots < maxPivots {
		enter := t.chooseEnter(bland)
		if enter == -1 {
			return Optimal
		}
		leave := t.chooseLeave(enter)
		if leave == -1 {
			return Unbounded
		}
		t.pivot(leave, enter)
		cur := t.objective()
		if prev-cur < 1e-12 {
			stall++
			if stall > stallLimit {
				bland = true
			}
		} else {
			stall, bland = 0, false
		}
		prev = cur
	}
	return IterationLimit
}

// driveOutArtificials removes artificial variables from the basis after a
// successful phase 1. Rows whose artificial cannot be exchanged for a
// structural column are redundant; their artificial stays basic at zero and
// every artificial column is banned from re-entering, which keeps such rows
// inert for the rest of the solve.
func (t *tableau) driveOutArtificials() {
	for r := 0; r < t.sf.m; r++ {
		if !t.sf.isArt[t.basis[r]] {
			continue
		}
		for j := 0; j < t.sf.n; j++ {
			if t.sf.isArt[j] || t.banned[j] {
				continue
			}
			if math.Abs(t.sf.a[r][j]) > pivotTol {
				t.pivot(r, j)
				break
			}
		}
	}
	for j, art := range t.sf.isArt {
		if art {
			t.banned[j] = true
		}
	}
}

// extractInto writes the standard-form solution vector into x (length
// sf.n, pre-zeroed).
func (t *tableau) extractInto(x []float64) {
	for r, bc := range t.basis {
		v := t.sf.b[r]
		if v < 0 {
			v = 0 // clamp tiny negative residue
		}
		x[bc] = v
	}
}

// Solve optimizes the model with the two-phase primal simplex method. On
// success it returns a Solution with Status == Optimal and a nil error.
// For infeasible, unbounded, or stalled problems it returns a partial
// Solution together with a wrapped ErrInfeasible / ErrUnbounded /
// ErrIterationLimit.
func (m *Model) Solve() (*Solution, error) {
	sol, err := m.solveTableau(&Workspace{})
	if sol != nil {
		// Detach the answer from the one-shot workspace so keeping it does
		// not keep the tableau.
		detached := *sol
		sol = &detached
	}
	return sol, err
}

// solveTableau is Solve with all solver scratch drawn from ws, the returned
// Solution included, so repeated solves of same-shaped models allocate
// nothing.
func (m *Model) solveTableau(ws *Workspace) (*Solution, error) {
	sf, err := buildStandardInto(m, &ws.sf)
	if err != nil {
		return nil, err
	}
	t := &ws.t
	t.reset(sf)
	maxPivots := 200 + 60*(sf.m+sf.n)

	sol := ws.solution(m)

	// Phase 1: minimize the sum of artificial variables.
	if len(sf.artCols) > 0 {
		ws.phase1 = zeroed(ws.phase1, sf.n)
		for _, j := range sf.artCols {
			ws.phase1[j] = 1
		}
		t.setObjective(ws.phase1)
		st := t.iterate(maxPivots)
		sol.Pivots = t.pivots
		if st == IterationLimit {
			sol.Status = IterationLimit
			return sol, fmt.Errorf("%w (phase 1 after %d pivots)", ErrIterationLimit, t.pivots)
		}
		// Phase 1 cannot be unbounded: the objective is bounded below by 0.
		if t.objective() > feasTol*float64(1+sf.m) {
			sol.Status = Infeasible
			return sol, fmt.Errorf("%w (artificial residual %g)", ErrInfeasible, t.objective())
		}
		t.driveOutArtificials()
	}

	// Phase 2: minimize the true objective.
	t.setObjective(sf.cost)
	st := t.iterate(maxPivots)
	sol.Pivots = t.pivots
	switch st {
	case Unbounded:
		sol.Status = Unbounded
		return sol, fmt.Errorf("%w (after %d pivots)", ErrUnbounded, t.pivots)
	case IterationLimit:
		sol.Status = IterationLimit
		return sol, fmt.Errorf("%w (phase 2 after %d pivots)", ErrIterationLimit, t.pivots)
	}

	ws.x = zeroed(ws.x, sf.n)
	t.extractInto(ws.x)
	sf.recoverPointInto(sol.values, ws.x)
	// Compute the objective in model space rather than from the running
	// tableau value, shedding accumulated round-off.
	sol.Objective = m.Eval(sol.values)

	// Duals: the reduced cost of each row's initial basic column (sf.basis:
	// its slack or artificial) encodes y_i because those columns formed the
	// identity matrix.
	for ci, r := range sf.rowOfCons {
		y := -t.obj[sf.basis[r]] * sf.rowSign[r]
		if sf.negate {
			y = -y
		}
		sol.duals[ci] = y
	}
	sol.Status = Optimal
	return sol, nil
}
