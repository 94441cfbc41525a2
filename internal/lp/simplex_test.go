package lp

import (
	"errors"
	"math"
	"testing"
)

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (tol %g)", what, got, want, tol)
	}
}

func TestSolveBasicMax(t *testing.T) {
	// Classic: max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18.
	// Optimum x=2, y=6, z=36.
	m := NewModel(Maximize)
	x := m.AddVar("x", 0, Inf, 3)
	y := m.AddVar("y", 0, Inf, 5)
	m.AddConstraint("c1", []Term{{x, 1}}, LE, 4)
	m.AddConstraint("c2", []Term{{y, 2}}, LE, 12)
	m.AddConstraint("c3", []Term{{x, 3}, {y, 2}}, LE, 18)
	sol, err := m.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	almost(t, sol.Objective, 36, 1e-7, "objective")
	almost(t, sol.Value(x), 2, 1e-7, "x")
	almost(t, sol.Value(y), 6, 1e-7, "y")
}

func TestSolveBasicMin(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 4, x + 2y >= 6 => x=2, y=2, z=10.
	m := NewModel(Minimize)
	x := m.AddVar("x", 0, Inf, 2)
	y := m.AddVar("y", 0, Inf, 3)
	m.AddConstraint("c1", []Term{{x, 1}, {y, 1}}, GE, 4)
	m.AddConstraint("c2", []Term{{x, 1}, {y, 2}}, GE, 6)
	sol, err := m.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	almost(t, sol.Objective, 10, 1e-7, "objective")
	almost(t, sol.Value(x), 2, 1e-7, "x")
	almost(t, sol.Value(y), 2, 1e-7, "y")
}

func TestSolveEquality(t *testing.T) {
	// min x + y s.t. x + y = 5, x - y = 1 => x=3, y=2.
	m := NewModel(Minimize)
	x := m.AddVar("x", 0, Inf, 1)
	y := m.AddVar("y", 0, Inf, 1)
	m.AddConstraint("sum", []Term{{x, 1}, {y, 1}}, EQ, 5)
	m.AddConstraint("diff", []Term{{x, 1}, {y, -1}}, EQ, 1)
	sol, err := m.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	almost(t, sol.Value(x), 3, 1e-7, "x")
	almost(t, sol.Value(y), 2, 1e-7, "y")
	almost(t, sol.Objective, 5, 1e-7, "objective")
}

func TestSolveInfeasible(t *testing.T) {
	m := NewModel(Minimize)
	x := m.AddVar("x", 0, Inf, 1)
	m.AddConstraint("hi", []Term{{x, 1}}, GE, 10)
	m.AddConstraint("lo", []Term{{x, 1}}, LE, 5)
	sol, err := m.Solve()
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v (sol=%+v)", err, sol)
	}
	if sol.Status != Infeasible {
		t.Errorf("Status = %v, want Infeasible", sol.Status)
	}
}

func TestSolveUnbounded(t *testing.T) {
	m := NewModel(Maximize)
	x := m.AddVar("x", 0, Inf, 1)
	y := m.AddVar("y", 0, Inf, 0)
	m.AddConstraint("c", []Term{{x, 1}, {y, -1}}, LE, 1)
	sol, err := m.Solve()
	if !errors.Is(err, ErrUnbounded) {
		t.Fatalf("want ErrUnbounded, got %v (sol=%+v)", err, sol)
	}
	if sol.Status != Unbounded {
		t.Errorf("Status = %v, want Unbounded", sol.Status)
	}
}

func TestSolveFreeVariable(t *testing.T) {
	// min x with x free, x >= -7 via constraint => x = -7.
	m := NewModel(Minimize)
	x := m.AddVar("x", -Inf, Inf, 1)
	m.AddConstraint("lb", []Term{{x, 1}}, GE, -7)
	sol, err := m.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	almost(t, sol.Value(x), -7, 1e-7, "x")
}

func TestSolveNegativeLowerBound(t *testing.T) {
	// min x + y with x in [-5, 5], y in [-1, inf), x + y >= -3.
	m := NewModel(Minimize)
	x := m.AddVar("x", -5, 5, 1)
	y := m.AddVar("y", -1, Inf, 1)
	m.AddConstraint("c", []Term{{x, 1}, {y, 1}}, GE, -3)
	sol, err := m.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	almost(t, sol.Objective, -3, 1e-7, "objective")
}

func TestSolveUpperBoundOnly(t *testing.T) {
	// max x with x in (-inf, 9] => 9.
	m := NewModel(Maximize)
	x := m.AddVar("x", -Inf, 9, 1)
	sol, err := m.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	almost(t, sol.Value(x), 9, 1e-7, "x")
}

func TestSolveDegenerate(t *testing.T) {
	// A degenerate vertex: three constraints through the optimum.
	m := NewModel(Maximize)
	x := m.AddVar("x", 0, Inf, 1)
	y := m.AddVar("y", 0, Inf, 1)
	m.AddConstraint("a", []Term{{x, 1}, {y, 1}}, LE, 2)
	m.AddConstraint("b", []Term{{x, 1}}, LE, 1)
	m.AddConstraint("c", []Term{{y, 1}}, LE, 1)
	m.AddConstraint("d", []Term{{x, 2}, {y, 1}}, LE, 3)
	sol, err := m.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	almost(t, sol.Objective, 2, 1e-7, "objective")
}

func TestSolveBealeCycling(t *testing.T) {
	// Beale's classic cycling example; must terminate via Bland fallback.
	// min -0.75 x4 + 150 x5 - 0.02 x6 + 6 x7
	// s.t. 0.25 x4 - 60 x5 - 0.04 x6 + 9 x7 <= 0
	//      0.5  x4 - 90 x5 - 0.02 x6 + 3 x7 <= 0
	//      x6 <= 1
	// Optimum z = -0.05 at x6 = 1, x4 = 0.04/0.25... (known z* = -1/20).
	m := NewModel(Minimize)
	x4 := m.AddVar("x4", 0, Inf, -0.75)
	x5 := m.AddVar("x5", 0, Inf, 150)
	x6 := m.AddVar("x6", 0, Inf, -0.02)
	x7 := m.AddVar("x7", 0, Inf, 6)
	m.AddConstraint("r1", []Term{{x4, 0.25}, {x5, -60}, {x6, -0.04}, {x7, 9}}, LE, 0)
	m.AddConstraint("r2", []Term{{x4, 0.5}, {x5, -90}, {x6, -0.02}, {x7, 3}}, LE, 0)
	m.AddConstraint("r3", []Term{{x6, 1}}, LE, 1)
	sol, err := m.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	almost(t, sol.Objective, -0.05, 1e-7, "objective")
}

func TestSolveRedundantConstraints(t *testing.T) {
	// Duplicate equality rows force a redundant row after phase 1.
	m := NewModel(Minimize)
	x := m.AddVar("x", 0, Inf, 1)
	y := m.AddVar("y", 0, Inf, 2)
	m.AddConstraint("e1", []Term{{x, 1}, {y, 1}}, EQ, 3)
	m.AddConstraint("e2", []Term{{x, 2}, {y, 2}}, EQ, 6) // 2x the first
	sol, err := m.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	almost(t, sol.Objective, 3, 1e-7, "objective") // x=3, y=0
	almost(t, sol.Value(x), 3, 1e-7, "x")
}

func TestSolveNegativeRHS(t *testing.T) {
	// Constraint with negative rhs exercises the row sign flip.
	// min x s.t. -x <= -4  (i.e. x >= 4).
	m := NewModel(Minimize)
	x := m.AddVar("x", 0, Inf, 1)
	m.AddConstraint("c", []Term{{x, -1}}, LE, -4)
	sol, err := m.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	almost(t, sol.Value(x), 4, 1e-7, "x")
}

func TestSolveDuals(t *testing.T) {
	// max 3x + 5y with the TestSolveBasicMax data. Known duals:
	// y1 = 0, y2 = 3/2, y3 = 1.
	m := NewModel(Maximize)
	x := m.AddVar("x", 0, Inf, 3)
	y := m.AddVar("y", 0, Inf, 5)
	c1 := m.AddConstraint("c1", []Term{{x, 1}}, LE, 4)
	c2 := m.AddConstraint("c2", []Term{{y, 2}}, LE, 12)
	c3 := m.AddConstraint("c3", []Term{{x, 3}, {y, 2}}, LE, 18)
	sol, err := m.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	almost(t, sol.Dual(c1), 0, 1e-7, "dual c1")
	almost(t, sol.Dual(c2), 1.5, 1e-7, "dual c2")
	almost(t, sol.Dual(c3), 1, 1e-7, "dual c3")
	// Strong duality: y·b equals the optimum for this all-LE problem.
	yb := sol.Dual(c1)*4 + sol.Dual(c2)*12 + sol.Dual(c3)*18
	almost(t, yb, sol.Objective, 1e-6, "dual objective")
}

// TestDualIsObjectiveSlope pins Dual's sign: ∂objective/∂rhs in either
// sense, not the objective's improvement. Raising the floor of x raises
// min x by 1 a unit and lowers max −x by 1 a unit.
func TestDualIsObjectiveSlope(t *testing.T) {
	for _, c := range []struct {
		sense Sense
		obj   float64
		want  float64
	}{{Minimize, 1, 1}, {Maximize, -1, -1}} {
		m := NewModel(c.sense)
		x := m.AddVar("x", 0, Inf, c.obj)
		row := m.AddConstraint("floor", []Term{{x, 1}}, GE, 2)
		sol, err := m.Solve()
		if err != nil {
			t.Fatalf("%v: Solve: %v", c.sense, err)
		}
		almost(t, sol.Dual(row), c.want, 1e-9, c.sense.String()+" dual")
	}
}

func TestSolveZeroObjective(t *testing.T) {
	// Pure feasibility problem.
	m := NewModel(Minimize)
	x := m.AddVar("x", 0, Inf, 0)
	y := m.AddVar("y", 0, Inf, 0)
	m.AddConstraint("c1", []Term{{x, 1}, {y, 1}}, EQ, 7)
	sol, err := m.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	almost(t, sol.Value(x)+sol.Value(y), 7, 1e-7, "x+y")
}

func TestSolveFixedVariable(t *testing.T) {
	// A variable with lo == hi is effectively a constant.
	m := NewModel(Minimize)
	x := m.AddVar("x", 3, 3, 1)
	y := m.AddVar("y", 0, Inf, 1)
	m.AddConstraint("c", []Term{{x, 1}, {y, 1}}, GE, 5)
	sol, err := m.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	almost(t, sol.Value(x), 3, 1e-7, "x")
	almost(t, sol.Value(y), 2, 1e-7, "y")
}

func TestSolveEmptyModelFails(t *testing.T) {
	m := NewModel(Minimize)
	if _, err := m.Solve(); err == nil {
		t.Fatal("Solve on empty model should fail")
	}
}

func TestSolveBoundedBoxOnly(t *testing.T) {
	// No constraints: optimum sits at a box corner determined by signs.
	m := NewModel(Minimize)
	a := m.AddVar("a", -2, 5, 3)  // min => lower bound -2
	b := m.AddVar("b", -4, 6, -1) // min of -b => upper bound 6
	c := m.AddVar("c", 1, 9, 0)   // indifferent
	sol, err := m.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	almost(t, sol.Value(a), -2, 1e-7, "a")
	almost(t, sol.Value(b), 6, 1e-7, "b")
	if v := sol.Value(c); v < 1-1e-7 || v > 9+1e-7 {
		t.Errorf("c = %g outside [1,9]", v)
	}
	almost(t, sol.Objective, -12, 1e-7, "objective")
}

func TestSolveRepeatedIsStable(t *testing.T) {
	m := NewModel(Maximize)
	x := m.AddVar("x", 0, 10, 1)
	y := m.AddVar("y", 0, 10, 2)
	m.AddConstraint("c", []Term{{x, 1}, {y, 1}}, LE, 12)
	first, err := m.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for i := 0; i < 5; i++ {
		again, err := m.Solve()
		if err != nil {
			t.Fatalf("Solve #%d: %v", i, err)
		}
		almost(t, again.Objective, first.Objective, 1e-12, "objective drift")
	}
}

func TestSolutionFeasibleAtOptimum(t *testing.T) {
	m := NewModel(Minimize)
	x := m.AddVar("x", 0, Inf, 1)
	y := m.AddVar("y", -3, 4, 5)
	z := m.AddVar("z", -Inf, Inf, -2)
	m.AddConstraint("c1", []Term{{x, 1}, {y, 2}, {z, 1}}, LE, 10)
	m.AddConstraint("c2", []Term{{x, 1}, {z, -1}}, GE, -2)
	m.AddConstraint("c3", []Term{{y, 1}, {z, 1}}, EQ, 1)
	sol, err := m.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !m.Feasible(sol.Values(), 1e-6) {
		t.Errorf("optimal point is not feasible: %v", sol.Values())
	}
}
