package transitive

import (
	"math/rand"
	"testing"
)

// Ablation bench: the exact closure (enumeration or subset DP, chosen per
// row) vs the matrix-power approximation (DESIGN.md calls this choice
// out). Exact is exponential in dense graphs but exact; Approx is
// O(level·n³).

func benchMatrix(n int, density float64) [][]float64 {
	rng := rand.New(rand.NewSource(7))
	s := make([][]float64, n)
	for i := range s {
		s[i] = make([]float64, n)
		for j := range s[i] {
			if i != j && rng.Float64() < density {
				s[i][j] = rng.Float64() * 0.3
			}
		}
	}
	return s
}

func BenchmarkExactComplete10(b *testing.B) {
	s := benchMatrix(10, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Exact(s, 9)
	}
}

func BenchmarkExactComplete11(b *testing.B) {
	// Each added node multiplies the dense-graph path count by ~n (~2 s/op
	// when this size was enumerated) and the DP's cost by ~2.
	s := benchMatrix(11, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Exact(s, 10)
	}
}

func BenchmarkExactSparse30(b *testing.B) {
	s := benchMatrix(30, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Exact(s, 29)
	}
}

func BenchmarkApproxComplete10(b *testing.B) {
	s := benchMatrix(10, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Approx(s, 9)
	}
}

func BenchmarkApproxComplete100(b *testing.B) {
	s := benchMatrix(100, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Approx(s, 99)
	}
}

func BenchmarkCapacities10(b *testing.B) {
	s := benchMatrix(10, 1)
	t := Cap(Exact(s, 9))
	v := make([]float64, 10)
	for i := range v {
		v[i] = float64(i + 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Capacities(v, t, nil)
	}
}

// benchClosureComplete builds the closure of a complete graph the way the
// server does: CSR rows, full level, the serving budget's one pass.
func benchClosureComplete(b *testing.B, n int) {
	_, adj, vals := csrOf(benchMatrix(n, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewClosureBudget(n, adj, vals, n-1, false, 50_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClosureComplete10(b *testing.B) { benchClosureComplete(b, 10) }
func BenchmarkClosureComplete12(b *testing.B) { benchClosureComplete(b, 12) }
func BenchmarkClosureComplete14(b *testing.B) { benchClosureComplete(b, 14) }

// BenchmarkClosureUpdateEdgeComplete10 is one Share on the paper's case
// study as the closure sees it, patched in place (PatchEdge) and taken back
// on alternate iterations: every row reaches the edited edge, so the update
// is the blast fallback's full rebuild under the budget.
func BenchmarkClosureUpdateEdgeComplete10(b *testing.B) {
	s := benchMatrix(10, 1)
	_, adj, vals := csrOf(s)
	c, err := NewClosureBudget(10, adj, vals, 9, false, 50_000_000)
	if err != nil {
		b.Fatal(err)
	}
	edge := [2]float64{s[0][1], s[0][1] + 0.05}
	var changed []int
	var old [][]int32
	var held []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if changed, old, held, err = c.PatchEdge(0, 1, edge[i%2], edge[(i+1)%2], changed[:0], old[:0], held[:0]); err != nil {
			b.Fatal(err)
		}
	}
}
