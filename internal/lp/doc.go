// Package lp implements the self-contained linear-programming solver the
// agreement-enforcement engine serves with.
//
// The paper ("Expressing and Enforcing Distributed Resource Sharing
// Agreements", SC 2000) formulates allocation as a small linear program and
// cites a textbook simplex method as the solution technique. This package
// provides exactly that: a dense, two-phase primal simplex, wrapped in a
// model-builder API. It picks the entering column by Dantzig's rule (most
// negative reduced cost) and falls back to Bland's smallest-index rule after
// stallLimit pivots that do not improve the objective, which with the
// smallest-basis-index tie-break of the ratio test rules out cycling.
//
// The solver supports:
//
//   - minimization and maximization objectives,
//   - <=, >= and = constraints,
//   - per-variable lower/upper bounds (including free variables),
//   - infeasibility and unboundedness detection,
//   - dual values (shadow prices) on the optimum.
//
// Typical use:
//
//	m := lp.NewModel(lp.Minimize)
//	x := m.AddVar("x", 0, lp.Inf, 1)
//	y := m.AddVar("y", 0, lp.Inf, 2)
//	m.AddConstraint("c1", []lp.Term{{x, 1}, {y, 1}}, lp.GE, 4)
//	sol, err := m.Solve()
//
// The implementation is deliberately dense: the LP the scheduler serves is
// the substituted formulation — for n principals, n+1 variables (the new
// availabilities V'_i and θ) plus an auxiliary u_ki per absolute agreement
// — with at most a few hundred rows, where a dense tableau is both the
// fastest and the most numerically transparent choice.
// A sparse representation of the input is still accepted (constraints are
// term lists), and a pivot updates only the pivot row's nonzero columns;
// the tableau itself is dense.
//
// The model-based tests judge this solver against an independent one,
// modeltest.RefSolve; the text format cmd/lpsolve reads lives there.
package lp
