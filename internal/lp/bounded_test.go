package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBoundedBasicMax(t *testing.T) {
	m := NewModel(Maximize)
	x := m.AddVar("x", 0, Inf, 3)
	y := m.AddVar("y", 0, Inf, 5)
	m.AddConstraint("c1", []Term{{x, 1}}, LE, 4)
	m.AddConstraint("c2", []Term{{y, 2}}, LE, 12)
	m.AddConstraint("c3", []Term{{x, 3}, {y, 2}}, LE, 18)
	sol, err := m.SolveWith(BoundedRevised)
	if err != nil {
		t.Fatalf("SolveWith(BoundedRevised): %v", err)
	}
	almost(t, sol.Objective, 36, 1e-7, "objective")
}

func TestBoundedBoxOnly(t *testing.T) {
	// Pure bound-flip territory: no constraints at all.
	m := NewModel(Minimize)
	a := m.AddVar("a", -2, 5, 3)
	b := m.AddVar("b", -4, 6, -1)
	sol, err := m.SolveWith(BoundedRevised)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, sol.Value(a), -2, 1e-7, "a at lower")
	almost(t, sol.Value(b), 6, 1e-7, "b at upper")
	almost(t, sol.Objective, -12, 1e-7, "objective")
}

func TestBoundedDoublyBoundedWithConstraints(t *testing.T) {
	// The scheduler's LP shape: doubly bounded variables plus coupling.
	m := NewModel(Minimize)
	v0 := m.AddVar("v0", 2, 10, 0)
	v1 := m.AddVar("v1", 0, 8, 0)
	theta := m.AddVar("theta", 0, Inf, 1)
	m.AddConstraint("consume", []Term{{v0, 1}, {v1, 1}}, EQ, 12)
	m.AddConstraint("p0", []Term{{v0, 1}, {theta, 1}}, GE, 10)
	m.AddConstraint("p1", []Term{{v1, 1}, {theta, 1}}, GE, 8)
	tab, errT := m.Solve()
	bnd, errB := m.SolveWith(BoundedRevised)
	if errT != nil || errB != nil {
		t.Fatalf("tableau %v, bounded %v", errT, errB)
	}
	almost(t, bnd.Objective, tab.Objective, 1e-6, "objective parity")
	if !m.Feasible(bnd.Values(), 1e-6) {
		t.Errorf("bounded optimum infeasible: %v", bnd.Values())
	}
}

func TestBoundedInfeasible(t *testing.T) {
	m := NewModel(Minimize)
	x := m.AddVar("x", 0, 5, 1)
	m.AddConstraint("hi", []Term{{x, 1}}, GE, 10)
	if _, err := m.SolveWith(BoundedRevised); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestBoundedUnbounded(t *testing.T) {
	m := NewModel(Maximize)
	x := m.AddVar("x", 0, Inf, 1)
	y := m.AddVar("y", 0, Inf, 0)
	m.AddConstraint("c", []Term{{x, 1}, {y, -1}}, LE, 1)
	if _, err := m.SolveWith(BoundedRevised); !errors.Is(err, ErrUnbounded) {
		t.Fatalf("want ErrUnbounded, got %v", err)
	}
}

func TestBoundedFreeAndMirrored(t *testing.T) {
	m := NewModel(Minimize)
	x := m.AddVar("x", -Inf, 9, 1)   // mirrored
	z := m.AddVar("z", -Inf, Inf, 2) // split
	m.AddConstraint("c", []Term{{x, 1}, {z, 1}}, GE, 4)
	m.AddConstraint("zb", []Term{{z, 1}}, GE, -3)
	tab, errT := m.Solve()
	bnd, errB := m.SolveWith(BoundedRevised)
	if errT != nil || errB != nil {
		t.Fatalf("tableau %v, bounded %v", errT, errB)
	}
	almost(t, bnd.Objective, tab.Objective, 1e-6, "objective parity")
}

func TestBoundedDuals(t *testing.T) {
	m := NewModel(Maximize)
	x := m.AddVar("x", 0, Inf, 3)
	y := m.AddVar("y", 0, Inf, 5)
	c1 := m.AddConstraint("c1", []Term{{x, 1}}, LE, 4)
	c2 := m.AddConstraint("c2", []Term{{y, 2}}, LE, 12)
	c3 := m.AddConstraint("c3", []Term{{x, 3}, {y, 2}}, LE, 18)
	sol, err := m.SolveWith(BoundedRevised)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, sol.Dual(c1), 0, 1e-7, "dual c1")
	almost(t, sol.Dual(c2), 1.5, 1e-7, "dual c2")
	almost(t, sol.Dual(c3), 1, 1e-7, "dual c3")
}

// TestQuickBoundedMatchesTableau holds the bounds-aware method to the
// tableau optimum on random feasible LPs (which are all doubly bounded by
// construction — the method's home turf).
func TestQuickBoundedMatchesTableau(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nVars := 1 + rng.Intn(6)
		nCons := rng.Intn(8)
		m, _ := randomFeasibleLP(rng, nVars, nCons)
		tab, errT := m.Solve()
		bnd, errB := m.SolveWith(BoundedRevised)
		if (errT == nil) != (errB == nil) {
			t.Logf("seed %d: tableau err %v, bounded err %v", seed, errT, errB)
			return false
		}
		if errT != nil {
			return true
		}
		if math.Abs(tab.Objective-bnd.Objective) > 1e-5*(1+math.Abs(tab.Objective)) {
			t.Logf("seed %d: tableau %g vs bounded %g\n%s", seed, tab.Objective, bnd.Objective, m.String())
			return false
		}
		if !m.Feasible(bnd.Values(), 1e-5) {
			t.Logf("seed %d: bounded point infeasible", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundedFixedVariable(t *testing.T) {
	m := NewModel(Minimize)
	x := m.AddVar("x", 3, 3, 1)
	y := m.AddVar("y", 0, Inf, 1)
	m.AddConstraint("c", []Term{{x, 1}, {y, 1}}, GE, 5)
	sol, err := m.SolveWith(BoundedRevised)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, sol.Value(x), 3, 1e-7, "x")
	almost(t, sol.Value(y), 2, 1e-7, "y")
}

// TestBoundedBealeCycling: Beale's degenerate LP cycles under a naive
// pivot rule; the anti-cycling rule must reach the optimum.
func TestBoundedBealeCycling(t *testing.T) {
	m := NewModel(Minimize)
	x4 := m.AddVar("x4", 0, Inf, -0.75)
	x5 := m.AddVar("x5", 0, Inf, 150)
	x6 := m.AddVar("x6", 0, Inf, -0.02)
	x7 := m.AddVar("x7", 0, Inf, 6)
	m.AddConstraint("r1", []Term{{x4, 0.25}, {x5, -60}, {x6, -0.04}, {x7, 9}}, LE, 0)
	m.AddConstraint("r2", []Term{{x4, 0.5}, {x5, -90}, {x6, -0.02}, {x7, 3}}, LE, 0)
	m.AddConstraint("r3", []Term{{x6, 1}}, LE, 1)
	sol, err := m.SolveWith(BoundedRevised)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, sol.Objective, -0.05, 1e-7, "objective")
}

// TestBoundedRefactorPath exercises the periodic refactorization of the
// basis inverse by solving a problem that needs more than 64 pivots.
func TestBoundedRefactorPath(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	m, _ := randomFeasibleLP(rng, 40, 60)
	tab, errT := m.Solve()
	bnd, errB := m.SolveWith(BoundedRevised)
	if errT != nil || errB != nil {
		t.Fatalf("tableau err %v, bounded err %v", errT, errB)
	}
	almost(t, bnd.Objective, tab.Objective, 1e-5*(1+math.Abs(tab.Objective)), "large-problem parity")
	if bnd.Pivots <= 64 {
		t.Fatalf("only %d pivots: the refactorization never ran", bnd.Pivots)
	}
}

func TestBoundedMethodString(t *testing.T) {
	if BoundedRevised.String() != "bounded-revised" {
		t.Errorf("String = %q", BoundedRevised.String())
	}
}
