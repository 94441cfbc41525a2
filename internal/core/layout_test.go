package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/modeltest"
)

// TestLayoutMatchesFreshBuild drives planners over modeltest's generator
// shapes through random sequences of PatchShare, PatchAgreement and Grow —
// cells moved in value, flipped between zero and positive, principals
// added and then shared from and to — and after every write requires each
// table, the closure's S and T, A, K and the columns, to hold exactly the
// live rows a fresh NewAllocator over the same matrices holds, bit for
// bit, and no more dead entries than live ones.
func TestLayoutMatchesFreshBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 200; iter++ {
		g := modeltest.Generate(rng)
		s, a := cloneSquare(g.S, g.N), cloneSquare(g.A, g.N)
		cfg := core.Config{Level: g.Level}
		al, err := core.NewAllocator(core.Sparse(s), core.Sparse(g.A), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 40; step++ {
			n := len(s)
			from, to := rng.Intn(n), rng.Intn(n)
			v := float64(1+rng.Intn(8)) / 16
			if rng.Intn(3) == 0 {
				v = 0 // a revoke: the cell leaves its rows and columns
			}
			var what string
			switch k := rng.Intn(10); {
			case k == 0:
				what, err = "Grow", nil
				al.Grow(1)
				s, a = cloneSquare(s, n+1), cloneSquare(a, n+1)
			case k < 6 && from != to:
				what, err = "PatchShare", al.PatchShare(from, to, s[from][to], v)
				s[from][to] = v
			case k >= 6:
				what, err = "PatchAgreement", al.PatchAgreement(from, to, a[from][to], 4*v)
				a[from][to] = 4 * v
			default:
				continue
			}
			if err != nil {
				t.Fatalf("graph %d step %d: %s(%d, %d): %v", iter, step, what, from, to, err)
			}
			fresh, err := core.NewAllocator(core.Sparse(s), core.Sparse(a), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if d := core.LayoutDiff(al, fresh); d != "" {
				t.Fatalf("graph %d (%v, n=%d, level %d) step %d, after %s(%d, %d): %s", iter, g.Shape, g.N, g.Level, step, what, from, to, d)
			}
		}
	}
}
