package modeltest

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
)

func near(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (tol %g)", what, got, want, tol)
	}
}

// randomBoxLP builds an LP that is feasible by construction: a point is
// drawn inside every variable's box first, and every row holds at it with
// slack.
func randomBoxLP(rng *rand.Rand, nVars, nCons int) *lp.Model {
	m := lp.NewModel(lp.Minimize)
	point := make([]float64, nVars)
	for i := range point {
		lo := rng.Float64() * 4
		hi := lo + 1 + rng.Float64()*10
		point[i] = lo + rng.Float64()*(hi-lo)
		m.AddVar("v", lo, hi, rng.NormFloat64()*3)
	}
	for c := 0; c < nCons; c++ {
		var terms []lp.Term
		lhs := 0.0
		for i := range point {
			if rng.Float64() < 0.3 {
				continue
			}
			coef := rng.NormFloat64() * 2
			terms = append(terms, lp.Term{Var: lp.VarID(i), Coeff: coef})
			lhs += coef * point[i]
		}
		if len(terms) == 0 {
			continue
		}
		slack := rng.Float64() * 5
		if rng.Intn(2) == 0 {
			m.AddConstraint("c", terms, lp.LE, lhs+slack)
		} else {
			m.AddConstraint("c", terms, lp.GE, lhs-slack)
		}
	}
	return m
}

func TestBoundedBoxOnly(t *testing.T) {
	// Pure bound-flip territory: no constraints at all.
	m := lp.NewModel(lp.Minimize)
	a := m.AddVar("a", -2, 5, 3)
	b := m.AddVar("b", -4, 6, -1)
	sol, err := RefSolve(m)
	if err != nil {
		t.Fatal(err)
	}
	near(t, sol.Values[a], -2, 1e-7, "a at lower")
	near(t, sol.Values[b], 6, 1e-7, "b at upper")
	near(t, sol.Objective, -12, 1e-7, "objective")
}

func TestBoundedFreeAndMirrored(t *testing.T) {
	m := lp.NewModel(lp.Minimize)
	x := m.AddVar("x", -lp.Inf, 9, 1)      // mirrored
	z := m.AddVar("z", -lp.Inf, lp.Inf, 2) // split
	m.AddConstraint("c", []lp.Term{{Var: x, Coeff: 1}, {Var: z, Coeff: 1}}, lp.GE, 4)
	m.AddConstraint("zb", []lp.Term{{Var: z, Coeff: 1}}, lp.GE, -3)
	tab, errT := m.Solve()
	ref, errR := RefSolve(m)
	if errT != nil || errR != nil {
		t.Fatalf("tableau %v, reference %v", errT, errR)
	}
	near(t, ref.Objective, tab.Objective, 1e-6, "objective parity")
}

func TestBoundedDuals(t *testing.T) {
	m := lp.NewModel(lp.Maximize)
	x := m.AddVar("x", 0, lp.Inf, 3)
	y := m.AddVar("y", 0, lp.Inf, 5)
	c1 := m.AddConstraint("c1", []lp.Term{{Var: x, Coeff: 1}}, lp.LE, 4)
	c2 := m.AddConstraint("c2", []lp.Term{{Var: y, Coeff: 2}}, lp.LE, 12)
	c3 := m.AddConstraint("c3", []lp.Term{{Var: x, Coeff: 3}, {Var: y, Coeff: 2}}, lp.LE, 18)
	sol, err := RefSolve(m)
	if err != nil {
		t.Fatal(err)
	}
	near(t, sol.Duals[c1], 0, 1e-7, "dual c1")
	near(t, sol.Duals[c2], 1.5, 1e-7, "dual c2")
	near(t, sol.Duals[c3], 1, 1e-7, "dual c3")
}

// TestBoundedBealeCycling: Beale's degenerate LP cycles under a naive
// pivot rule; the anti-cycling rule must reach the optimum.
func TestBoundedBealeCycling(t *testing.T) {
	m := lp.NewModel(lp.Minimize)
	x4 := m.AddVar("x4", 0, lp.Inf, -0.75)
	x5 := m.AddVar("x5", 0, lp.Inf, 150)
	x6 := m.AddVar("x6", 0, lp.Inf, -0.02)
	x7 := m.AddVar("x7", 0, lp.Inf, 6)
	m.AddConstraint("r1", []lp.Term{{Var: x4, Coeff: 0.25}, {Var: x5, Coeff: -60}, {Var: x6, Coeff: -0.04}, {Var: x7, Coeff: 9}}, lp.LE, 0)
	m.AddConstraint("r2", []lp.Term{{Var: x4, Coeff: 0.5}, {Var: x5, Coeff: -90}, {Var: x6, Coeff: -0.02}, {Var: x7, Coeff: 3}}, lp.LE, 0)
	m.AddConstraint("r3", []lp.Term{{Var: x6, Coeff: 1}}, lp.LE, 1)
	sol, err := RefSolve(m)
	if err != nil {
		t.Fatal(err)
	}
	near(t, sol.Objective, -0.05, 1e-7, "objective")
}

// TestBoundedRefactorPath exercises the periodic refactorization of the
// basis inverse by solving a problem that needs more than 64 pivots.
func TestBoundedRefactorPath(t *testing.T) {
	m := randomBoxLP(rand.New(rand.NewSource(99)), 40, 60)
	tab, errT := m.Solve()
	ref, errR := RefSolve(m)
	if errT != nil || errR != nil {
		t.Fatalf("tableau err %v, reference err %v", errT, errR)
	}
	near(t, ref.Objective, tab.Objective, 1e-5*(1+math.Abs(tab.Objective)), "large-problem parity")
	if ref.Pivots <= 64 {
		t.Fatalf("only %d pivots: the refactorization never ran", ref.Pivots)
	}
}
