package modeltest

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/agreement"
	"repro/internal/core"
)

// Import-vs-builder bit-equality: an allocator built from a dense matrix
// imported with agreement.SparseOf must be indistinguishable — to the last
// bit — from one built from the same entries accumulated through an
// agreement.SparseBuilder, the path System.SparseMatrices takes, across
// the whole generated taxonomy. Closure rows, capacities, and every Plan
// outcome are compared with ==, not a tolerance: the two CSR forms hold
// the same floats in the same order, so drift of even one ulp is a bug in
// one of them. The same equality must hold with ComponentLP on.

// built accumulates m's non-zero entries, row by row, through a
// SparseBuilder; nil stays nil.
func built(m [][]float64) *agreement.SparseMatrix {
	if m == nil {
		return nil
	}
	b := agreement.NewSparseBuilder(len(m))
	for i, row := range m {
		for j, v := range row {
			if v != 0 {
				b.Add(i, j, v)
			}
		}
	}
	return b.Build()
}

func bitEqualVec(t *testing.T, what string, imported, twin []float64) {
	t.Helper()
	if len(imported) != len(twin) {
		t.Fatalf("%s: length %d (SparseOf) vs %d (SparseBuilder)", what, len(imported), len(twin))
	}
	for i := range imported {
		if imported[i] != twin[i] {
			t.Fatalf("%s[%d]: %v (SparseOf) vs %v (SparseBuilder) — paths diverged by %g",
				what, i, imported[i], twin[i], imported[i]-twin[i])
		}
	}
}

func TestSparseDenseBitEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(*seedFlag))
	cases := 120
	if testing.Short() {
		cases = 30
	}
	for c := 0; c < cases; c++ {
		g := Generate(rng)
		for _, componentLP := range []bool{false, true} {
			cfg := core.Config{Level: g.Level, ComponentLP: componentLP}
			imported, derr := core.NewAllocator(sparse(g.S), sparse(g.A), cfg)
			twin, serr := core.NewAllocator(built(g.S), built(g.A), cfg)
			if (derr == nil) != (serr == nil) {
				t.Fatalf("case %d: construction disagrees: SparseOf %v, SparseBuilder %v\n%s", c, derr, serr, g)
			}
			if derr != nil {
				continue // both refused (e.g. closure budget); nothing to compare
			}

			dk, sk := imported.FlowCoefficients(), twin.FlowCoefficients()
			for i := range dk {
				bitEqualVec(t, "closure row", dk[i], sk[i])
			}
			bitEqualVec(t, "capacities", imported.Capacities(g.V), twin.Capacities(g.V))

			caps := imported.Capacities(g.V)
			for r := 0; r < g.N; r++ {
				for _, amount := range []float64{0.5, caps[r], caps[r] * 1.5} {
					if amount <= 0 {
						continue
					}
					dp, dpErr := imported.Plan(g.V, r, amount)
					sp, spErr := twin.Plan(g.V, r, amount)
					if (dpErr == nil) != (spErr == nil) ||
						errors.Is(dpErr, core.ErrInsufficient) != errors.Is(spErr, core.ErrInsufficient) {
						t.Fatalf("case %d componentLP=%v: Plan(%d, %g) disagrees: SparseOf %v, SparseBuilder %v\n%s",
							c, componentLP, r, amount, dpErr, spErr, g)
					}
					if dpErr != nil {
						continue
					}
					if dp.Theta != sp.Theta {
						t.Fatalf("case %d componentLP=%v: Plan(%d, %g) theta %v (SparseOf) vs %v (SparseBuilder)\n%s",
							c, componentLP, r, amount, dp.Theta, sp.Theta, g)
					}
					bitEqualVec(t, "take", dp.Take, sp.Take)
					bitEqualVec(t, "newV", dp.NewV, sp.NewV)
				}
			}
		}
	}
}
