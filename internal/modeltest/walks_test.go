package modeltest

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/planners"
	"repro/internal/transitive"
)

// capacitiesOf reads every principal's capacity from p, one at a time.
func capacitiesOf(p planners.Planner, v []float64) []float64 {
	out := make([]float64, len(v))
	for i := range out {
		out[i] = p.Capacity(v, i)
	}
	return out
}

// requireBitsEqual fails unless got and want hold the same floats.
func requireBitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %v, dense reference %v", what, i, got[i], want[i])
		}
	}
}

// randomShares draws an n-principal agreement matrix in which each
// off-diagonal entry is stored with probability density, valued in
// [0, scale).
func randomShares(rng *rand.Rand, n int, density, scale float64) [][]float64 {
	s := zeroMatrix(n)
	for i := range s {
		for j := range s[i] {
			if i != j && rng.Float64() < density {
				s[i][j] = scale * rng.Float64()
			}
		}
	}
	return s
}

// TestCapsIntoMatchesDense pins core's sparse-column capacity sum to the
// dense capacity formula bit for bit, with and without absolute
// agreements, for the whole vector and one principal at a time.
func TestCapsIntoMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(10)
		s := randomShares(rng, n, 0.4, 1)
		var a [][]float64
		if trial%2 == 1 {
			a = randomShares(rng, n, 0.3, 2)
		}
		al, err := core.NewAllocator(sparse(s), sparse(a), core.Config{Level: 2})
		if err != nil {
			t.Fatal(err)
		}
		v := make([]float64, n)
		for i := range v {
			v[i] = 10 * rng.Float64()
		}
		want := Capacities(v, al.FlowCoefficients(), a)
		requireBitsEqual(t, "Capacities", al.Capacities(v), want)
		for i := range want {
			if one := al.Capacity(v, i); one != want[i] {
				t.Fatalf("trial %d: Capacity(%d) = %v, dense %v", trial, i, one, want[i])
			}
		}
	}
}

// TestCapacitiesIntoMatchesCapacities holds transitive.CapacitiesInto, the
// layer benchmark's dense capacity sum, to the reference formula bit for
// bit.
func TestCapacitiesIntoMatchesCapacities(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randomShares(rng, 12, 0.5, 1)
	tm := Approx(s, 3)
	a := randomShares(rng, 12, 0.2, 1)
	v := make([]float64, 12)
	for i := range v {
		v[i] = rng.Float64() * 100
	}
	got := make([]float64, 12)
	transitive.CapacitiesInto(got, v, tm, a)
	requireBitsEqual(t, "CapacitiesInto", got, Capacities(v, tm, a))
}

// TestMatchesDenseReference pins the planners to the dense computation
// they once carried: capacities from the dense formula over the capped
// exact closure, and θ recomputed from those capacities, must equal what
// the planners report bit for bit, with and without absolute agreements.
// (MultiView's θ is its LP's optimum, not a recomputation.)
func TestMatchesDenseReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		s := zeroMatrix(n)
		for i := 0; i < n; i++ {
			remaining := 1.0
			for j := 0; j < n; j++ {
				if i == j || rng.Float64() < 0.4 {
					continue
				}
				s[i][j] = rng.Float64() * remaining * 0.7
				remaining -= s[i][j]
			}
		}
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64() * 50
		}
		requester, amount := rng.Intn(n), rng.Float64()*30
		var a [][]float64
		if seed%2 == 1 {
			a = randomShares(rng, n, 0.3, 5)
		}
		direct := Cap(closureT(s, 1))
		full := Cap(closureT(s, n-1))

		pr, err := planners.NewProportional(sparse(s), sparse(a))
		if err != nil {
			t.Fatal(err)
		}
		gr, err := planners.NewGreedy(sparse(s), sparse(a), core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		half := make([][]int, 2) // 0..n/2-1 and n/2..n-1
		for i := 0; i < n; i++ {
			g := min(i/(n/2), 1)
			half[g] = append(half[g], i)
		}
		h, err := planners.NewHierarchy(sparse(s), sparse(a), half, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		mv, err := planners.NewMultiView(map[string]*agreement.SparseMatrix{"only": sparse(s)}, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		requireBitsEqual(t, "Proportional.Capacity", capacitiesOf(pr, v), Capacities(v, direct, a))
		requireBitsEqual(t, "Greedy.Capacity", capacitiesOf(gr, v), Capacities(v, full, a))
		requireBitsEqual(t, "MultiView.Capacities", mv.Capacities(v)["only"], Capacities(v, full, nil))
		for _, c := range []struct {
			name string
			p    planners.Planner
			k    [][]float64
		}{{"Proportional", pr, direct}, {"Greedy", gr, full}, {"Hierarchy", h, full}} {
			sources, takes, theta, err := c.p.PlanPairs(nil, nil, v, requester, amount)
			if err != nil {
				continue // a refusal has no θ
			}
			newV := slices.Clone(v)
			for x, i := range sources {
				newV[i] = max(v[i]-takes[x], 0)
			}
			before, after := Capacities(v, c.k, a), Capacities(newV, c.k, a)
			want := 0.0
			for i := range before {
				if d := before[i] - after[i]; i != requester && d > want {
					want = d
				}
			}
			if theta != want {
				t.Errorf("seed %d: %s θ = %v, dense recomputation %v", seed, c.name, theta, want)
			}
		}
	}
}
