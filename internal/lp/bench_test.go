package lp

import (
	"math/rand"
	"strings"
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

// BenchmarkSolveSchedulerShape measures the exact LP shape the allocation
// engine generates for n principals: n+1 variables, ~n perturbation rows.
func BenchmarkSolveSchedulerShape(b *testing.B) {
	const n = 10
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseModel(b *testing.B) {
	src := `
min: 2 x + 3 y + z
c1: x + y >= 4
c2: x - y <= 2
c3: x + 2 y + 3 z = 9
0 <= z <= 5
`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseModel(strings.NewReader(src)); err != nil {
			b.Fatal(err)
		}
	}
}

// Method ablation: the tableau against the bounded revised simplex (the
// modeltest oracle's reference solver) on the same problems.

func benchSolveWith(b *testing.B, method Method, nVars, nCons int) {
	m := benchLP(nVars, nCons)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SolveWith(method); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableau30x30(b *testing.B)  { benchSolveWith(b, Tableau, 30, 30) }
func BenchmarkTableau200x20(b *testing.B) { benchSolveWith(b, Tableau, 200, 20) }
func BenchmarkBounded30x30(b *testing.B)  { benchSolveWith(b, BoundedRevised, 30, 30) }
func BenchmarkBounded200x20(b *testing.B) { benchSolveWith(b, BoundedRevised, 200, 20) }

// BenchmarkSchedulerShapeByMethod compares both methods on the allocation
// engine's doubly-bounded LP shape, where implicit bounds should shine
// (the tableau materializes one extra row per bounded variable).
func benchSchedulerShape(b *testing.B, method Method) {
	const n = 20
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SolveWith(method); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchedulerTableau20(b *testing.B) { benchSchedulerShape(b, Tableau) }
func BenchmarkSchedulerBounded20(b *testing.B) { benchSchedulerShape(b, BoundedRevised) }
