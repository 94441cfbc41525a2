package agreement

import (
	"math/rand"
	"testing"
)

// Valuation benches: the direct linear solve Values serves with, O(n³) but
// exact.

func benchSystem(n int) *System {
	rng := rand.New(rand.NewSource(3))
	return randomSystem(rng, n)
}

func BenchmarkValuesDirect20(b *testing.B) {
	s := benchSystem(20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Values(disk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValuesDirect100(b *testing.B) {
	s := benchSystem(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Values(disk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSparseMatrices20(b *testing.B) {
	s := benchSystem(20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SparseMatrices(disk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildComplete10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := BuildComplete(10, General, 1, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}
