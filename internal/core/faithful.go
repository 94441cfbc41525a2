package core

import (
	"fmt"

	"repro/internal/lp"
)

// planFaithful builds the paper's LP exactly as printed: n(n−1) flow
// variables I'_ij, n capacity variables C'_i, n availability variables
// V'_i and θ — (n²+n+1) variables in all — related by the equality
// constraints (1) and (2). It produces the same allocations as the
// substituted formulation (a property the tests check) at roughly n×
// the pivot cost; it exists for validation and the ablation bench.
// Absolute agreements are not part of the paper's printed LP, so the
// faithful mode rejects them.
func (al *Allocator) planFaithful(ws *planWS, v []float64, requester int, amount float64) error {
	if al.hasA {
		return fmt.Errorf("core: Faithful formulation covers the paper's basic model only (no absolute agreement matrix)")
	}
	n := al.n
	// The shape a substituted skeleton would have with everyone live:
	// variable i is V'_i, and eq. 6 keeps a row per constrained principal.
	sk := &planSkeleton{vars: make([]int32, n), req: requester}
	for i := range sk.vars {
		sk.vars[i] = int32(i)
		if i != requester || al.cfg.KeepRequesterConstraint {
			sk.rows = append(sk.rows, compRow{i: int32(i), self: int32(i), src: al.colIdx[i]})
		}
	}
	al.bindPlan(ws, sk, v, requester)
	m := lp.NewModel(lp.Minimize)

	const eps = 1e-6
	vp := make([]lp.VarID, n)
	for i := 0; i < n; i++ {
		lo := v[i] - ws.uCol[i]
		if lo < 0 {
			lo = 0
		}
		vp[i] = m.AddVar(fmt.Sprintf("V'_%d", i), lo, v[i], -eps*al.conn[i])
	}
	cp := make([]lp.VarID, n)
	for i := 0; i < n; i++ {
		cp[i] = m.AddVar(fmt.Sprintf("C'_%d", i), 0, lp.Inf, 0)
	}
	flow := make([][]lp.VarID, n)
	for i := 0; i < n; i++ {
		flow[i] = make([]lp.VarID, n)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			flow[i][j] = m.AddVar(fmt.Sprintf("I'_%d_%d", i, j), 0, lp.Inf, 0)
		}
	}
	theta := m.AddVar("theta", 0, lp.Inf, 1)

	// (1) I'_ij = V'_i · K_ij.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			m.AddConstraint(fmt.Sprintf("flow_%d_%d", i, j),
				[]lp.Term{{Var: flow[i][j], Coeff: 1}, {Var: vp[i], Coeff: -al.kAt(i, j)}}, lp.EQ, 0)
		}
	}
	// (2) C'_i = V'_i + Σ_{k≠i} I'_ki.
	for i := 0; i < n; i++ {
		terms := []lp.Term{{Var: cp[i], Coeff: 1}, {Var: vp[i], Coeff: -1}}
		for k := 0; k < n; k++ {
			if k != i {
				terms = append(terms, lp.Term{Var: flow[k][i], Coeff: -1})
			}
		}
		m.AddConstraint(fmt.Sprintf("capacity_%d", i), terms, lp.EQ, 0)
	}
	// (5) Σ (V_i − V'_i) = amount.
	var totalV float64
	sumTerms := make([]lp.Term, n)
	for i := 0; i < n; i++ {
		totalV += v[i]
		sumTerms[i] = lp.Term{Var: vp[i], Coeff: 1}
	}
	m.AddConstraint("consume", sumTerms, lp.EQ, totalV-amount)
	// (6) C_i − θ ≤ C'_i ≤ C_i.
	for r, pr := range sk.rows {
		i := pr.i
		m.AddConstraint(fmt.Sprintf("perturb_lo_%d", i),
			[]lp.Term{{Var: cp[i], Coeff: 1}, {Var: theta, Coeff: 1}}, lp.GE, ws.caps[r])
		m.AddConstraint(fmt.Sprintf("perturb_hi_%d", i),
			[]lp.Term{{Var: cp[i], Coeff: 1}}, lp.LE, ws.caps[r])
	}
	if al.cfg.KeepRequesterConstraint {
		// (3) C'_A = C_A − x, relaxed to ≥: the flow model only loses
		// K_kA ≤ 1 per unit taken from k, so demanding equality would be
		// infeasible whenever any take crosses a fractional agreement.
		m.AddConstraint("requester_drop",
			[]lp.Term{{Var: cp[requester], Coeff: 1}}, lp.GE, ws.capReq-amount)
	}

	sol, err := m.SolveWithWorkspace(lp.Tableau, &ws.lpws)
	if err != nil {
		return fmt.Errorf("core: faithful allocation LP failed: %w", err)
	}
	ws.readNewV(sol)
	return al.finishPlan(ws, sk, v, requester, amount)
}
