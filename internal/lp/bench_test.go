package lp

import (
	"math/rand"
	"testing"
)

// benchLP builds a reproducible random feasible LP of the given size.
func benchLP(nVars, nCons int) *Model {
	rng := rand.New(rand.NewSource(42))
	m, _ := randomFeasibleLP(rng, nVars, nCons)
	return m
}

func benchSolve(b *testing.B, nVars, nCons int) {
	m := benchLP(nVars, nCons)
	b.ResetTimer()
	var pivots int
	for i := 0; i < b.N; i++ {
		sol, err := m.Solve()
		if err != nil {
			b.Fatal(err)
		}
		pivots = sol.Pivots
	}
	b.ReportMetric(float64(pivots), "pivots")
}

func BenchmarkSolve10x10(b *testing.B)   { benchSolve(b, 10, 10) }
func BenchmarkSolve30x30(b *testing.B)   { benchSolve(b, 30, 30) }
func BenchmarkSolve100x60(b *testing.B)  { benchSolve(b, 100, 60) }
func BenchmarkSolve100x200(b *testing.B) { benchSolve(b, 100, 200) }

// schedulerShapeLP is the LP shape the allocation engine generates for n
// principals: n doubly bounded V' variables and θ, one consumption row and
// n perturbation rows.
func schedulerShapeLP(n int) *Model {
	m := NewModel(Minimize)
	vars := make([]VarID, n)
	for i := 0; i < n; i++ {
		vars[i] = m.AddVar("v", 0, 100, 0)
	}
	theta := m.AddVar("theta", 0, Inf, 1)
	terms := make([]Term, n)
	for i := range vars {
		terms[i] = Term{vars[i], 1}
	}
	m.AddConstraint("consume", terms, EQ, float64(50*n)-30)
	for i := 0; i < n; i++ {
		row := []Term{{vars[i], 1}, {theta, 1}}
		for k := 0; k < n; k++ {
			if k != i {
				row = append(row, Term{vars[k], 0.1})
			}
		}
		m.AddConstraint("perturb", row, GE, 120)
	}
	return m
}

func benchSolveModel(b *testing.B, m *Model) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveSchedulerShape measures the scheduler's LP shape at n = 10.
func BenchmarkSolveSchedulerShape(b *testing.B) { benchSolveModel(b, schedulerShapeLP(10)) }

// The tableau halves of the method ablation; bounded_test.go times modeltest's
// reference simplex on the same problems.
func BenchmarkTableau30x30(b *testing.B)       { benchSolveModel(b, benchLP(30, 30)) }
func BenchmarkTableau200x20(b *testing.B)      { benchSolveModel(b, benchLP(200, 20)) }
func BenchmarkSchedulerTableau20(b *testing.B) { benchSolveModel(b, schedulerShapeLP(20)) }
