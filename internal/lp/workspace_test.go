package lp

import (
	"math/rand"
	"testing"
)

// randomModel builds a small feasible-ish LP with a mix of bound kinds and
// relations so the standard-form conversion exercises shift, mirror, split,
// bound rows, slacks, and artificials.
func randomModel(rng *rand.Rand, nVars, nCons int) *Model {
	m := NewModel(Minimize)
	for i := 0; i < nVars; i++ {
		switch i % 4 {
		case 0:
			m.AddVar("x", 0, Inf, rng.Float64())
		case 1:
			m.AddVar("y", -1-rng.Float64(), 1+rng.Float64(), rng.Float64()-0.5)
		case 2:
			m.AddVar("z", -Inf, 2+rng.Float64(), rng.Float64())
		default:
			m.AddVar("w", -Inf, Inf, rng.Float64()-0.5)
		}
	}
	for c := 0; c < nCons; c++ {
		terms := make([]Term, 0, nVars)
		for v := 0; v < nVars; v++ {
			if rng.Float64() < 0.6 {
				terms = append(terms, Term{Var: VarID(v), Coeff: rng.Float64()*4 - 2})
			}
		}
		rel := Relation(c % 3)
		m.AddConstraint("c", terms, rel, rng.Float64()*3-0.5)
	}
	return m
}

// TestWorkspaceReuseBitIdentical pins SolveWithWorkspace to Solve exactly:
// same status, same pivot count, and bit-for-bit identical primal values,
// duals, and objective — including when one workspace is reused across
// models of different shapes so every buffer goes through grow-and-reset.
func TestWorkspaceReuseBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ws := &Workspace{}
	shapes := [][2]int{{3, 2}, {8, 6}, {2, 5}, {12, 9}, {5, 1}, {8, 6}}
	for trial := 0; trial < 40; trial++ {
		shape := shapes[trial%len(shapes)]
		m := randomModel(rng, shape[0], shape[1])

		want, wantErr := m.Solve()
		got, gotErr := m.SolveWithWorkspace(Tableau, ws)

		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: error mismatch: fresh=%v workspace=%v", trial, wantErr, gotErr)
		}
		if wantErr != nil {
			if want.Status != got.Status {
				t.Fatalf("trial %d: status mismatch: fresh=%v workspace=%v", trial, want.Status, got.Status)
			}
			continue
		}
		if want.Status != got.Status || want.Pivots != got.Pivots {
			t.Fatalf("trial %d: status/pivots mismatch: fresh=%v/%d workspace=%v/%d",
				trial, want.Status, want.Pivots, got.Status, got.Pivots)
		}
		if want.Objective != got.Objective {
			t.Fatalf("trial %d: objective mismatch: fresh=%v workspace=%v", trial, want.Objective, got.Objective)
		}
		for v := 0; v < m.NumVars(); v++ {
			if want.Value(VarID(v)) != got.Value(VarID(v)) {
				t.Fatalf("trial %d: value[%d] mismatch: fresh=%v workspace=%v",
					trial, v, want.Value(VarID(v)), got.Value(VarID(v)))
			}
		}
		for c := 0; c < m.NumConstraints(); c++ {
			if want.Dual(c) != got.Dual(c) {
				t.Fatalf("trial %d: dual[%d] mismatch: fresh=%v workspace=%v",
					trial, c, want.Dual(c), got.Dual(c))
			}
		}
	}
}

// TestSetRHSMatchesRebuild checks SetRHS: a model whose right-hand side is
// rewritten between solves on one workspace must solve identically to the
// same model built from scratch with that right-hand side.
func TestSetRHSMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := randomModel(rng, 6, 4)
	ws := &Workspace{}

	for trial := 0; trial < 20; trial++ {
		rhs := rng.Float64() * 2
		base.SetRHS(0, rhs)

		fresh := randomModel(rand.New(rand.NewSource(11)), 6, 4)
		fresh.SetRHS(0, rhs)

		want, wantErr := fresh.Solve()
		got, gotErr := base.SolveWithWorkspace(Tableau, ws)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: error mismatch: fresh=%v rewritten=%v", trial, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if want.Objective != got.Objective {
			t.Fatalf("trial %d: objective mismatch: fresh=%v rewritten=%v", trial, want.Objective, got.Objective)
		}
		for v := 0; v < fresh.NumVars(); v++ {
			if want.Value(VarID(v)) != got.Value(VarID(v)) {
				t.Fatalf("trial %d: value[%d] mismatch", trial, v)
			}
		}
	}
}
