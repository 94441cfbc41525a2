package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g", what, got, want)
	}
}

// twoNodeSystem: principal 1 shares 50% with principal 0.
func twoNodeSystem() [][]float64 {
	return [][]float64{
		{0, 0},
		{0.5, 0},
	}
}

func TestCapacities(t *testing.T) {
	al, err := NewAllocator(twoNodeSystem(), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := al.Capacities([]float64{10, 20})
	almost(t, c[0], 20, 1e-9, "C_0 = 10 + 50% of 20")
	almost(t, c[1], 20, 1e-9, "C_1")
}

func TestPlanOwnResourcesFirstWhenNeutral(t *testing.T) {
	// With no agreements at all, the only source is the requester.
	s := [][]float64{{0, 0}, {0, 0}}
	al, err := NewAllocator(s, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := al.Plan([]float64{10, 10}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, plan.Take[0], 4, 1e-9, "take from self")
	almost(t, plan.Take[1], 0, 1e-9, "take from other")
	almost(t, plan.NewV[0], 6, 1e-9, "V'_0")
}

func TestPlanRespectsSourceCaps(t *testing.T) {
	// Principal 1 shares 50% of 20 = 10 with 0; a request for 25 must take
	// at most 10 from principal 1.
	al, err := NewAllocator(twoNodeSystem(), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	v := []float64{16, 20}
	plan, err := al.Plan(v, 0, 25)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Take[1] > 10+1e-9 {
		t.Errorf("took %g from principal 1, cap is 10", plan.Take[1])
	}
	almost(t, plan.Take[0]+plan.Take[1], 25, 1e-9, "total take")
}

func TestPlanInsufficient(t *testing.T) {
	al, err := NewAllocator(twoNodeSystem(), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// C_0 = 10 + 10 = 20 < 21.
	if _, err := al.Plan([]float64{10, 20}, 0, 21); !errors.Is(err, ErrInsufficient) {
		t.Errorf("want ErrInsufficient, got %v", err)
	}
}

func TestPlanZeroAmount(t *testing.T) {
	al, err := NewAllocator(twoNodeSystem(), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := al.Plan([]float64{10, 20}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range plan.Take {
		if x != 0 {
			t.Errorf("Take[%d] = %g for zero request", i, x)
		}
	}
}

func TestPlanMinimizesPerturbation(t *testing.T) {
	// Principal 0 requests 8; sources 1 and 2 both share 100% with 0.
	// Principal 3 depends fully on 1 and half on 2, so each unit taken
	// from 1 costs 3 twice as much as a unit taken from 2. Minimizing
	// θ = max(take1, take2, take1 + take2/2) over take1 + take2 = 8
	// yields take1 = 8/3, take2 = 16/3, θ = 16/3 — an asymmetric split a
	// greedy or proportional scheme would not produce.
	s := [][]float64{
		{0, 0, 0, 0},
		{1, 0, 0, 1},
		{1, 0, 0, 0.5},
		{0, 0, 0, 0},
	}
	al, err := NewAllocator(s, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	v := []float64{0, 10, 10, 0}
	plan, err := al.Plan(v, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, plan.Take[1], 8.0/3, 1e-6, "take from heavily depended-on source 1")
	almost(t, plan.Take[2], 16.0/3, 1e-6, "take from lightly depended-on source 2")
	almost(t, plan.Theta, 16.0/3, 1e-6, "theta")
}

func TestPlanBalancesWhenSymmetric(t *testing.T) {
	// Three identical sources sharing 100% with requester 0, each with a
	// dependent. Minimizing max perturbation splits the take evenly.
	s := [][]float64{
		{0, 0, 0, 0, 0, 0, 0},
		{1, 0, 0, 0, 1, 0, 0},
		{1, 0, 0, 0, 0, 1, 0},
		{1, 0, 0, 0, 0, 0, 1},
		{0, 0, 0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0, 0, 0},
	}
	al, err := NewAllocator(s, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	v := []float64{0, 12, 12, 12, 0, 0, 0}
	plan, err := al.Plan(v, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		almost(t, plan.Take[i], 3, 1e-6, "balanced take")
	}
	almost(t, plan.Theta, 3, 1e-6, "theta = max drop")
}

func TestPlanTransitivityLevels(t *testing.T) {
	// Chain 2 -> 1 -> 0 (100% each). At level 1, principal 0 can only use
	// 1's resources; at level 2 it can also reach 2's.
	s := [][]float64{
		{0, 0, 0},
		{1, 0, 0},
		{0, 1, 0},
	}
	v := []float64{0, 0, 10}

	lvl1, err := NewAllocator(s, nil, Config{Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lvl1.Plan(v, 0, 5); !errors.Is(err, ErrInsufficient) {
		t.Errorf("level 1 should not reach principal 2's resources, got %v", err)
	}
	lvl2, err := NewAllocator(s, nil, Config{Level: 2})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := lvl2.Plan(v, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, plan.Take[2], 5, 1e-9, "transitive take")
}

func TestPlanAbsoluteAgreements(t *testing.T) {
	// Principal 1 has only an absolute agreement of 6 with 0.
	s := [][]float64{{0, 0}, {0, 0}}
	a := [][]float64{{0, 0}, {6, 0}}
	al, err := NewAllocator(s, a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	v := []float64{2, 20}
	c := al.Capacities(v)
	almost(t, c[0], 8, 1e-9, "C_0 = 2 + 6")
	plan, err := al.Plan(v, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Take[1] > 6+1e-9 {
		t.Errorf("took %g from principal 1, absolute cap is 6", plan.Take[1])
	}
	almost(t, plan.Take[0]+plan.Take[1], 7, 1e-9, "total")
}

func TestNewAllocatorValidation(t *testing.T) {
	if _, err := NewAllocator([][]float64{{0.5}}, nil, Config{}); err == nil {
		t.Error("nonzero diagonal accepted")
	}
	if _, err := NewAllocator(twoNodeSystem(), [][]float64{{0}}, Config{}); err == nil {
		t.Error("mismatched A accepted")
	}
	if _, err := NewAllocator(twoNodeSystem(), [][]float64{{0, -1}, {0, 0}}, Config{}); err == nil {
		t.Error("negative A accepted")
	}
}

func TestPlanNegativeAmount(t *testing.T) {
	al, err := NewAllocator(twoNodeSystem(), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := al.Plan([]float64{1, 1}, 0, -3); err == nil {
		t.Error("negative request accepted")
	}
}

func TestFlowCoefficientsCopy(t *testing.T) {
	al, err := NewAllocator(twoNodeSystem(), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	k := al.FlowCoefficients()
	k[1][0] = 99
	if al.kAt(1, 0) == 99 || al.FlowCoefficients()[1][0] == 99 {
		t.Error("FlowCoefficients leaked internal state")
	}
}

// --- property tests -------------------------------------------------

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

func TestQuickPlanInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, v, requester, amount := randomScenario(rng)
		al, err := NewAllocator(s, nil, Config{})
		if err != nil {
			return false
		}
		plan, err := al.Plan(v, requester, amount)
		if errors.Is(err, ErrInsufficient) {
			// Then the capacity really is short.
			return al.Capacities(v)[requester] < amount
		}
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		var sum float64
		for i := range plan.Take {
			if plan.Take[i] < -1e-9 {
				t.Logf("seed %d: negative take %g", seed, plan.Take[i])
				return false
			}
			if i != requester {
				if cap := al.sourceCap(v, i, requester); plan.Take[i] > cap+1e-6 {
					t.Logf("seed %d: take[%d]=%g exceeds cap %g", seed, i, plan.Take[i], cap)
					return false
				}
			}
			if plan.Take[i] > v[i]+1e-6 {
				t.Logf("seed %d: take[%d]=%g exceeds availability %g", seed, i, plan.Take[i], v[i])
				return false
			}
			sum += plan.Take[i]
		}
		if math.Abs(sum-amount) > 1e-6 {
			t.Logf("seed %d: takes sum to %g, want %g", seed, sum, amount)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLPThetaBeatsBaselines(t *testing.T) {
	// The LP allocation's realized θ must not exceed the baselines' (it
	// minimizes exactly that metric).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, v, requester, amount := randomScenario(rng)
		al, err := NewAllocator(s, nil, Config{})
		if err != nil {
			return false
		}
		gr, err := NewGreedy(s, nil, Config{})
		if err != nil {
			return false
		}
		lpPlan, e1 := al.Plan(v, requester, amount)
		grPlan, e2 := gr.Plan(v, requester, amount)
		if e1 != nil || e2 != nil {
			return errors.Is(e1, ErrInsufficient) == errors.Is(e2, ErrInsufficient)
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

// TestConfigFields pins Config to what something outside this package's
// tests sets. A new field doubles the plan-path configurations the
// equivalence tests must cover, so it arrives as a reviewed change to this
// list and not in passing.
func TestConfigFields(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	if want := []string{"Level", "Approx", "ComponentLP"}; !slices.Equal(got, want) {
		t.Fatalf("core.Config fields are %v, want exactly %v", got, want)
	}
}

func TestApproxConfig(t *testing.T) {
	s, v, _, _ := randomScenario(rand.New(rand.NewSource(7)))
	exact, err := NewAllocator(s, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := NewAllocator(s, nil, Config{Approx: true})
	if err != nil {
		t.Fatal(err)
	}
	ce, ca := exact.Capacities(v), approx.Capacities(v)
	for i := range ce {
		if ca[i] < ce[i]-1e-9 {
			t.Errorf("approx capacity %g below exact %g at %d", ca[i], ce[i], i)
		}
	}
}

func TestNewAllocatorRefusesExplosiveExact(t *testing.T) {
	n := 20
	s := make([][]float64, n)
	for i := range s {
		s[i] = make([]float64, n)
		for j := range s[i] {
			if i != j {
				s[i][j] = 0.05
			}
		}
	}
	if _, err := NewAllocator(s, nil, Config{}); err == nil {
		t.Fatal("dense 20-principal exact closure should be refused")
	}
	if _, err := NewAllocator(s, nil, Config{Approx: true}); err != nil {
		t.Fatalf("approx mode should work: %v", err)
	}
	if _, err := NewAllocator(s, nil, Config{Level: 2}); err != nil {
		t.Fatalf("low level should keep exact mode affordable: %v", err)
	}
}
