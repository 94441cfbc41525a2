package core_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/modeltest"
)

// FuzzPlan feeds the allocator randomized agreement graphs (decoded from
// the fuzz seed through the model-based generator, so every input is a
// well-formed system) and checks that PlanPairs never panics and that every
// successful allocation satisfies the paper's equations 1–6 against the
// brute-force oracle. This lives in the external test package so it can
// use internal/modeltest without an import cycle.
//
// Run the corpus as part of `go test`; explore with:
//
//	go test ./internal/core -fuzz FuzzPlan -fuzztime 30s
func FuzzPlan(f *testing.F) {
	// Seed corpus: one entry per generator regime (the seeds below cover
	// every shape, overdraft on/off, and absolute agreements — verified by
	// TestModelGeneratorCoverage's census), plus boundary request sizes.
	for _, seed := range []int64{1, 2, 3, 5, 7, 11, 19, 42, 123, 999} {
		f.Add(seed, uint8(0), uint16(1<<15))
		f.Add(seed, uint8(1), uint16(1<<16-1))
	}
	f.Add(int64(4242), uint8(3), uint16(0))

	f.Fuzz(func(t *testing.T, seed int64, reqRaw uint8, fracRaw uint16) {
		g := modeltest.Generate(rand.New(rand.NewSource(seed)))
		al, err := core.NewAllocator(core.Sparse(g.S), core.Sparse(g.A), core.Config{Level: g.Level})
		if err != nil {
			t.Fatalf("generator produced an unconstructible graph: %v\n%s", err, g)
		}
		oracle := modeltest.NewOracle(g)
		caps := oracle.Capacities(g.V)
		requester := int(reqRaw) % g.N
		// Fractions run past 1 so infeasible requests are exercised too.
		frac := float64(fracRaw) / (1 << 16) * 1.3
		amount := caps[requester] * frac

		plan, err := modeltest.PlanDense(al, g.V, requester, amount)
		switch {
		case err == nil:
			if cerr := oracle.CheckAllocation(g.V, requester, amount, plan); cerr != nil {
				t.Fatalf("allocation violates the paper equations: %v\nseed=%d requester=%d amount=%g\n%s",
					cerr, seed, requester, amount, g)
			}
		case errors.Is(err, core.ErrInsufficient):
			if amount < caps[requester]*(1-1e-6) {
				t.Fatalf("Plan refused %g as insufficient with capacity %g\nseed=%d requester=%d\n%s",
					amount, caps[requester], seed, requester, g)
			}
		case errors.Is(err, core.ErrInfeasible):
			// Legal outcome: LP degeneracy left an unrepairable residual.
		default:
			t.Fatalf("Plan failed unexpectedly: %v\nseed=%d requester=%d amount=%g\n%s",
				err, seed, requester, amount, g)
		}
	})
}
