package transitive

import (
	"math/rand"
	"testing"
)

// Closure builds: the exact kernels (enumeration or subset DP, chosen per
// row) on complete and sparse graphs. A dense build is exponential in the
// level; a lower level bounds it.

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

// benchBuild times an unbudgeted closure build of the dense bench matrix
// at the given level; the CSR import is untimed.
func benchBuild(b *testing.B, s [][]float64, level int) {
	m := sparseOf(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewClosureBudget(m, level, 0)
	}
}

func BenchmarkExactComplete10(b *testing.B) { benchBuild(b, benchMatrix(10, 1), 9) }

// BenchmarkExactComplete11: each added node multiplies the dense-graph
// path count by ~n (~2 s/op when this size was enumerated) and the DP's
// cost by ~2.
func BenchmarkExactComplete11(b *testing.B) { benchBuild(b, benchMatrix(11, 1), 10) }

func BenchmarkExactSparse30(b *testing.B) { benchBuild(b, benchMatrix(30, 0.1), 29) }

// BenchmarkCapacities10 times CapacitiesInto over the capped exact flow
// matrix of the complete graph of 10.
func BenchmarkCapacities10(b *testing.B) {
	t := capped(flows(benchMatrix(10, 1), 9))
	v := make([]float64, 10)
	for i := range v {
		v[i] = float64(i + 1)
	}
	dst := make([]float64, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CapacitiesInto(dst, v, t, nil)
	}
}

// benchClosureComplete builds the closure of a complete graph the way the
// server does: CSR rows, full level, the serving budget's one pass.
func benchClosureComplete(b *testing.B, n int) {
	m := sparseOf(benchMatrix(n, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewClosureBudget(m, n-1, 50_000_000); err != nil {
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
	c, err := NewClosureBudget(sparseOf(s), 9, 50_000_000)
	if err != nil {
		b.Fatal(err)
	}
	edge := [2]float64{s[0][1], s[0][1] + 0.05}
	var delta Delta
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err = c.PatchEdge(0, 1, edge[i%2], edge[(i+1)%2], &delta); err != nil {
			b.Fatal(err)
		}
	}
}
