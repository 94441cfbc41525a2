package planners_test

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/planners"
	"repro/internal/transitive"
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
		al, err := core.NewAllocator(s, nil, core.Config{})
		if err != nil {
			return false
		}
		gr, err := planners.NewGreedy(s, nil, core.Config{})
		if err != nil {
			return false
		}
		lpPlan, e1 := al.Plan(v, requester, amount)
		grPlan, e2 := gr.Plan(v, requester, amount)
		if e1 != nil || e2 != nil {
			return errors.Is(e1, core.ErrInsufficient) == errors.Is(e2, core.ErrInsufficient)
		}
		if lpPlan.Theta > grPlan.Theta+1e-6 {
			t.Logf("seed %d: LP theta %g > greedy theta %g", seed, lpPlan.Theta, grPlan.Theta)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestMatchesDenseReference pins the planners to the dense computation
// they once carried: capacities from transitive.Capacities over
// Cap(Exact(S, level)), and θ recomputed from those capacities, must equal
// what the planners report bit for bit, with and without absolute
// agreements. (MultiView's θ is its LP's optimum, not a recomputation.)
func TestMatchesDenseReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, v, requester, amount := randomScenario(rng)
		n := len(s)
		var a [][]float64
		if seed%2 == 1 {
			a = make([][]float64, n)
			for i := range a {
				a[i] = make([]float64, n)
				for j := range a[i] {
					if i != j && rng.Float64() < 0.3 {
						a[i][j] = rng.Float64() * 5
					}
				}
			}
		}
		direct := transitive.Cap(transitive.Exact(s, 1))
		full := transitive.Cap(transitive.Exact(s, n-1))

		pr, err := planners.NewProportional(s, a)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := planners.NewGreedy(s, a, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		h, err := planners.NewHierarchy(s, a, [][]int{seq(0, n/2), seq(n/2, n)}, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		mv, err := planners.NewMultiView(map[string][][]float64{"only": s}, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		requireBits(t, seed, "Proportional.Capacities", pr.Capacities(v), transitive.Capacities(v, direct, a))
		requireBits(t, seed, "Greedy.Capacities", gr.Capacities(v), transitive.Capacities(v, full, a))
		requireBits(t, seed, "MultiView.Capacities", mv.Capacities(v)["only"], transitive.Capacities(v, full, nil))
		for _, c := range []struct {
			name string
			p    planners.Planner
			k    [][]float64
		}{{"Proportional", pr, direct}, {"Greedy", gr, full}, {"Hierarchy", h, full}} {
			plan, err := c.p.Plan(v, requester, amount)
			if err != nil {
				continue // a refusal has no θ
			}
			before, after := transitive.Capacities(v, c.k, a), transitive.Capacities(plan.NewV, c.k, a)
			want := 0.0
			for i := range before {
				if d := before[i] - after[i]; i != requester && d > want {
					want = d
				}
			}
			if plan.Theta != want {
				t.Errorf("seed %d: %s θ = %v, dense recomputation %v", seed, c.name, plan.Theta, want)
			}
		}
	}
}

func seq(lo, hi int) []int {
	var out []int
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

func requireBits(t *testing.T, seed int64, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seed %d: %s[%d] = %v, dense %v", seed, what, i, got[i], want[i])
		}
	}
}
