package planners

import (
	"math/rand"
	"testing"

	"repro/internal/agreement"
	"repro/internal/core"
)

// TestHierarchyCoarseMatchesDense pins the coarse agreement matrices
// NewHierarchy accumulates over sparse rows to the dense n×n aggregation,
// bit for bit, on groups of unequal sizes and with absolute agreements:
// each group-to-group cell sums the same contributions in the same order.
func TestHierarchyCoarseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	zeros := func(n int) [][]float64 {
		m := make([][]float64, n)
		for i := range m {
			m[i] = make([]float64, n)
		}
		return m
	}
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(8)
		s, a := zeros(n), zeros(n)
		for i := range s {
			for j := range s[i] {
				if i != j && rng.Float64() < 0.5 {
					s[i][j] = 0.6 * rng.Float64()
				}
				if i != j && rng.Float64() < 0.3 {
					a[i][j] = 4 * rng.Float64()
				}
			}
		}
		var groups [][]int
		for lo := 0; lo < n; {
			hi := min(n, lo+1+rng.Intn(4))
			var g []int
			for p := lo; p < hi; p++ {
				g = append(g, p)
			}
			groups, lo = append(groups, g), hi
		}
		sm, _ := agreement.SparseOf(s)
		am, _ := agreement.SparseOf(a)
		h, err := NewHierarchy(sm, am, groups, core.Config{})
		if err != nil {
			t.Fatal(err)
		}

		ng := len(groups)
		sg, ag := zeros(ng), zeros(ng)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if gi, gj := h.of[i], h.of[j]; gi != gj {
					sg[gi][gj] += s[i][j] / float64(len(groups[gi]))
					ag[gi][gj] += a[i][j]
				}
			}
		}
		for g := range sg {
			var sum float64
			for _, x := range sg[g] {
				sum += x
			}
			if sum > 1 {
				for j := range sg[g] {
					sg[g][j] /= sum
				}
			}
		}
		for gi := range sg {
			for gj := range sg[gi] {
				if gi == gj {
					continue
				}
				if got := h.coarse.Share(gi, gj); got != sg[gi][gj] {
					t.Fatalf("trial %d: coarse S[%d][%d] = %v, dense %v", trial, gi, gj, got, sg[gi][gj])
				}
				if got := h.coarse.Agreement(gi, gj); got != ag[gi][gj] {
					t.Fatalf("trial %d: coarse A[%d][%d] = %v, dense %v", trial, gi, gj, got, ag[gi][gj])
				}
			}
		}
	}
}
