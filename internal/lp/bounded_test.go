package lp_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lp"
	"repro/internal/modeltest"
)

// The tableau held to modeltest's reference simplex (modeltest.RefSolve),
// an independent bounds-aware revised simplex: same optima, same verdicts.

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (tol %g)", what, got, want, tol)
	}
}

func TestBoundedBasicMax(t *testing.T) {
	m := lp.NewModel(lp.Maximize)
	x := m.AddVar("x", 0, lp.Inf, 3)
	y := m.AddVar("y", 0, lp.Inf, 5)
	m.AddConstraint("c1", []lp.Term{{Var: x, Coeff: 1}}, lp.LE, 4)
	m.AddConstraint("c2", []lp.Term{{Var: y, Coeff: 2}}, lp.LE, 12)
	m.AddConstraint("c3", []lp.Term{{Var: x, Coeff: 3}, {Var: y, Coeff: 2}}, lp.LE, 18)
	sol, err := modeltest.RefSolve(m)
	if err != nil {
		t.Fatalf("RefSolve: %v", err)
	}
	almost(t, sol.Objective, 36, 1e-7, "objective")
}

func TestBoundedDoublyBoundedWithConstraints(t *testing.T) {
	// The scheduler's LP shape: doubly bounded variables plus coupling.
	m := lp.NewModel(lp.Minimize)
	v0 := m.AddVar("v0", 2, 10, 0)
	v1 := m.AddVar("v1", 0, 8, 0)
	theta := m.AddVar("theta", 0, lp.Inf, 1)
	m.AddConstraint("consume", []lp.Term{{Var: v0, Coeff: 1}, {Var: v1, Coeff: 1}}, lp.EQ, 12)
	m.AddConstraint("p0", []lp.Term{{Var: v0, Coeff: 1}, {Var: theta, Coeff: 1}}, lp.GE, 10)
	m.AddConstraint("p1", []lp.Term{{Var: v1, Coeff: 1}, {Var: theta, Coeff: 1}}, lp.GE, 8)
	tab, errT := m.Solve()
	ref, errR := modeltest.RefSolve(m)
	if errT != nil || errR != nil {
		t.Fatalf("tableau %v, reference %v", errT, errR)
	}
	almost(t, ref.Objective, tab.Objective, 1e-6, "objective parity")
	if !m.Feasible(ref.Values, 1e-6) {
		t.Errorf("reference optimum infeasible: %v", ref.Values)
	}
}

func TestBoundedInfeasible(t *testing.T) {
	m := lp.NewModel(lp.Minimize)
	x := m.AddVar("x", 0, 5, 1)
	m.AddConstraint("hi", []lp.Term{{Var: x, Coeff: 1}}, lp.GE, 10)
	if _, err := modeltest.RefSolve(m); !errors.Is(err, lp.ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestBoundedUnbounded(t *testing.T) {
	m := lp.NewModel(lp.Maximize)
	x := m.AddVar("x", 0, lp.Inf, 1)
	y := m.AddVar("y", 0, lp.Inf, 0)
	m.AddConstraint("c", []lp.Term{{Var: x, Coeff: 1}, {Var: y, Coeff: -1}}, lp.LE, 1)
	if _, err := modeltest.RefSolve(m); !errors.Is(err, lp.ErrUnbounded) {
		t.Fatalf("want ErrUnbounded, got %v", err)
	}
}

func TestBoundedFixedVariable(t *testing.T) {
	m := lp.NewModel(lp.Minimize)
	x := m.AddVar("x", 3, 3, 1)
	y := m.AddVar("y", 0, lp.Inf, 1)
	m.AddConstraint("c", []lp.Term{{Var: x, Coeff: 1}, {Var: y, Coeff: 1}}, lp.GE, 5)
	sol, err := modeltest.RefSolve(m)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, sol.Values[x], 3, 1e-7, "x")
	almost(t, sol.Values[y], 2, 1e-7, "y")
}

// TestQuickBoundedMatchesTableau holds the tableau optimum to the
// reference's on random feasible LPs (which are all doubly bounded by
// construction — the reference's home turf).
func TestQuickBoundedMatchesTableau(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nVars := 1 + rng.Intn(6)
		nCons := rng.Intn(8)
		m, _ := lp.RandomFeasibleLP(rng, nVars, nCons)
		tab, errT := m.Solve()
		ref, errR := modeltest.RefSolve(m)
		if (errT == nil) != (errR == nil) {
			t.Logf("seed %d: tableau err %v, reference err %v", seed, errT, errR)
			return false
		}
		if errT != nil {
			return true
		}
		if math.Abs(tab.Objective-ref.Objective) > 1e-5*(1+math.Abs(tab.Objective)) {
			t.Logf("seed %d: tableau %g vs reference %g\n%s", seed, tab.Objective, ref.Objective, m.String())
			return false
		}
		if !m.Feasible(ref.Values, 1e-5) {
			t.Logf("seed %d: reference point infeasible", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The reference halves of the method ablation (bench_test.go has the
// tableau's): the same problems through modeltest.RefSolve.

func benchRef(b *testing.B, m *lp.Model) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := modeltest.RefSolve(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBounded30x30(b *testing.B)       { benchRef(b, lp.BenchLP(30, 30)) }
func BenchmarkBounded200x20(b *testing.B)      { benchRef(b, lp.BenchLP(200, 20)) }
func BenchmarkSchedulerBounded20(b *testing.B) { benchRef(b, lp.SchedulerShapeLP(20)) }
