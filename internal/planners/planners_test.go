package planners_test

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/planners"
)

// randomScenario draws a small agreement graph with row sums below 1, an
// availability vector and one request.
func randomScenario(rng *rand.Rand) (s [][]float64, v []float64, requester int, amount float64) {
	n := 2 + rng.Intn(6)
	s = make([][]float64, n)
	for i := range s {
		s[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		remaining := 1.0
		for j := 0; j < n; j++ {
			if i == j || rng.Float64() < 0.4 {
				continue
			}
			share := rng.Float64() * remaining * 0.7
			s[i][j] = share
			remaining -= share
		}
	}
	v = make([]float64, n)
	for i := range v {
		v[i] = rng.Float64() * 50
	}
	requester = rng.Intn(n)
	amount = rng.Float64() * 30
	return
}

func TestQuickLPThetaBeatsBaselines(t *testing.T) {
	// The LP allocation's realized θ must not exceed the baselines' (it
	// minimizes exactly that metric).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, v, requester, amount := randomScenario(rng)
		al, err := core.NewAllocator(sparse(s), nil, core.Config{})
		if err != nil {
			return false
		}
		gr, err := planners.NewGreedy(sparse(s), nil, core.Config{})
		if err != nil {
			return false
		}
		_, _, lpTheta, e1 := al.PlanPairs(nil, nil, v, requester, amount)
		_, _, grTheta, e2 := gr.PlanPairs(nil, nil, v, requester, amount)
		if e1 != nil || e2 != nil {
			return errors.Is(e1, core.ErrInsufficient) == errors.Is(e2, core.ErrInsufficient)
		}
		if lpTheta > grTheta+1e-6 {
			t.Logf("seed %d: LP theta %g > greedy theta %g", seed, lpTheta, grTheta)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// sparse imports a dense test literal with agreement.SparseOf; nil stays
// nil.
func sparse(m [][]float64) *agreement.SparseMatrix {
	out, err := agreement.SparseOf(m)
	if err != nil {
		panic(err)
	}
	return out
}
