package lp

import "repro/internal/num"

// warmState is the final basis of the last successful ResolveFrom solve,
// together with the structural signature of the standard form it was
// factored from. A later resolve whose model differs only in bounds and
// right-hand sides (the enforcement loop's common case: availability
// moved, agreement structure didn't) reuses the basis without a single
// pivot; any structural drift fails the signature check and falls back
// to a cold solve.
//
// Why zero pivots suffice: the saved tableau holds B⁻¹A for the optimal
// basis B. Reduced costs depend only on the cost vector, the matrix, and
// the basis — none of which moved — so the basis stays dual-feasible. It
// stays primal-feasible exactly when B⁻¹·b_new >= 0, which tryWarm
// verifies directly: the initial identity columns of the tableau are the
// columns of B⁻¹ (each started as +1 in its own row), so b̄ = B⁻¹·b_new
// costs O(m²) against the saved tableau. Dual- plus primal-feasible is
// optimal. Because b̄ is recomputed from the same frozen tableau on every
// resolve, round-off does not accumulate across reuses.
type warmState struct {
	valid bool

	// structural signature
	m, n, nStruct int
	nVars         int
	negate        bool
	rels          []Relation
	rowSign       []float64
	subs          []subst
	cost          []float64
	aFlat         []float64 // standard-form matrix the basis was factored from

	// final solved tableau
	tabFlat []float64 // m×n, row-major: B⁻¹A
	tabObj  []float64 // optimal reduced-cost row (dual source)
	basis   []int     // final basic column per row

	bNew []float64 // scratch for B⁻¹·b_new
}

// ResolveFrom solves the model, warm-starting from the basis a previous
// ResolveFrom on the same Workspace left behind. When only variable
// bounds and right-hand sides moved since that solve, the answer comes
// from revalidating the saved basis — no pivots; when the constraint
// structure, coefficients, or objective changed (or the saved basis is
// no longer feasible), it falls back to a cold tableau solve and
// re-snapshots the basis. Results are Optimal solutions either way;
// warm and cold answers for the same model agree within the documented
// num.SolveTol policy (different pivot paths, same optimum). The warm
// path is reported on Solution.Warm. Like SolveWithWorkspace's, the
// Solution lives in ws until the next solve on it.
func (m *Model) ResolveFrom(ws *Workspace) (*Solution, error) {
	if ws == nil {
		return m.Solve()
	}
	if sol, ok := m.tryWarm(ws); ok {
		return sol, nil
	}
	ws.keepWarm = true
	sol, err := m.solveTableau(ws)
	ws.keepWarm = false
	return sol, err
}

// HasWarmBasis reports whether the workspace holds a saved basis a
// future ResolveFrom could reuse.
func (ws *Workspace) HasWarmBasis() bool { return ws.warm.valid }

// InvalidateWarm drops the saved basis, forcing the next ResolveFrom to
// solve cold.
func (ws *Workspace) InvalidateWarm() { ws.warm.valid = false }

// saveWarm snapshots the solved tableau and its standard form into the
// workspace's warm state. Called only on Optimal cold solves initiated
// by ResolveFrom.
func (ws *Workspace) saveWarm(sf *standardForm, t *tableau) {
	w := &ws.warm
	w.m, w.n, w.nStruct, w.negate = sf.m, sf.n, sf.nStruct, sf.negate
	w.nVars = len(sf.subs)
	w.rels = append(w.rels[:0], sf.rels[:sf.m]...)
	w.rowSign = append(w.rowSign[:0], sf.rowSign[:sf.m]...)
	w.subs = append(w.subs[:0], sf.subs...)
	w.cost = append(w.cost[:0], sf.cost[:sf.n]...)
	w.aFlat = append(w.aFlat[:0], sf.aFlat[:sf.m*sf.n]...)
	w.tabFlat = append(w.tabFlat[:0], t.aFlat[:sf.m*sf.n]...)
	w.tabObj = append(w.tabObj[:0], t.obj[:sf.n]...)
	w.basis = append(w.basis[:0], t.basis[:sf.m]...)
	w.valid = true
}

// matches reports whether the freshly built standard form has the same
// structure, coefficients, and costs as the one the warm basis was
// factored from — the validity condition for basis reuse. Comparisons
// are value-exact: anything beyond a bounds/RHS move fails here.
func (w *warmState) matches(sf *standardForm) bool {
	if !w.valid || sf.m != w.m || sf.n != w.n || sf.nStruct != w.nStruct ||
		sf.negate != w.negate || len(sf.subs) != w.nVars {
		return false
	}
	for i := 0; i < sf.m; i++ {
		if sf.rels[i] != w.rels[i] || !num.IsZero(sf.rowSign[i]-w.rowSign[i]) {
			return false
		}
	}
	for i, s := range sf.subs {
		ps := w.subs[i]
		if s.kind != ps.kind || s.col != ps.col || s.negCol != ps.negCol {
			return false
		}
	}
	for j := 0; j < sf.n; j++ {
		if !num.IsZero(sf.cost[j] - w.cost[j]) {
			return false
		}
	}
	for i, v := range sf.aFlat[:sf.m*sf.n] {
		if !num.IsZero(v - w.aFlat[i]) {
			return false
		}
	}
	return true
}

// tryWarm attempts the zero-pivot warm resolve. It returns ok=false —
// and leaves the workspace ready for a cold solve — when no basis is
// saved, the structure drifted, or the saved basis is infeasible for the
// new right-hand side.
func (m *Model) tryWarm(ws *Workspace) (*Solution, bool) {
	w := &ws.warm
	if !w.valid {
		return nil, false
	}
	sf, err := buildStandardInto(m, &ws.sf)
	if err != nil {
		return nil, false
	}
	if !w.matches(sf) {
		return nil, false
	}

	// b̄ = B⁻¹·b_new: column r of B⁻¹ is the saved tableau's column for
	// row r's initial identity basis entry (sf.basis — the fresh build's
	// layout is identical to the saved one by the signature check).
	n := sf.n
	w.bNew = growFloats(w.bNew, sf.m)
	bNew := w.bNew
	for r := 0; r < sf.m; r++ {
		br := sf.b[r]
		if num.IsZero(br) {
			continue
		}
		col := sf.basis[r]
		for i := 0; i < sf.m; i++ {
			bNew[i] += w.tabFlat[i*n+col] * br
		}
	}
	for i := 0; i < sf.m; i++ {
		v := bNew[i]
		if v < -feasTol {
			return nil, false // basis primal-infeasible for the new RHS
		}
		if v < 0 {
			bNew[i] = 0
		}
		if sf.isArt[w.basis[i]] && bNew[i] > feasTol {
			// A redundant row's artificial would have to go positive:
			// this basis cannot represent the new problem.
			return nil, false
		}
	}

	sol := ws.solution(m)
	sol.Warm = true
	ws.x = growFloats(ws.x, sf.n)
	for r, bc := range w.basis {
		ws.x[bc] = bNew[r]
	}
	sf.recoverPointInto(sol.values, ws.x)
	sol.Objective = m.Eval(sol.values)
	for ci, r := range sf.rowOfCons {
		y := -w.tabObj[sf.basisColOfRow(r)]
		y *= sf.rowSign[r]
		if sf.negate {
			y = -y
		}
		sol.duals[ci] = y
	}
	sol.Status = Optimal
	return sol, true
}
