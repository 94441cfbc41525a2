package agreement

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValuesCyclicAgreements(t *testing.T) {
	// A <-> B mutual 50% shares: v_A = 10 + v_B/2, v_B = 15 + v_A/2
	// => v_A = 70/3, v_B = 80/3.
	s := NewSystem()
	a := s.AddPrincipal("A")
	b := s.AddPrincipal("B")
	if _, err := s.AddResource("ra", disk, a, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddResource("rb", disk, b, 15); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ShareRelative(s.CurrencyOf(a), s.CurrencyOf(b), 500); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ShareRelative(s.CurrencyOf(b), s.CurrencyOf(a), 500); err != nil {
		t.Fatal(err)
	}
	v, err := s.Values(disk)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v[s.CurrencyOf(a)]-70.0/3) > 1e-9 {
		t.Errorf("v(A) = %g, want %g", v[s.CurrencyOf(a)], 70.0/3)
	}
	if math.Abs(v[s.CurrencyOf(b)]-80.0/3) > 1e-9 {
		t.Errorf("v(B) = %g, want %g", v[s.CurrencyOf(b)], 80.0/3)
	}
}

func TestValuesSingularCycle(t *testing.T) {
	// A backs B 100% and B backs A 100%: the fixed point is degenerate.
	s := NewSystem()
	a := s.AddPrincipal("A")
	b := s.AddPrincipal("B")
	if _, err := s.AddResource("ra", disk, a, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ShareRelative(s.CurrencyOf(a), s.CurrencyOf(b), 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ShareRelative(s.CurrencyOf(b), s.CurrencyOf(a), 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Values(disk); !errors.Is(err, ErrSingularValuation) {
		t.Errorf("want ErrSingularValuation, got %v", err)
	}
}

// valuesGaussSeidel computes currency values by Gauss–Seidel iteration,
// which converges whenever every backing cycle is contractive (re-injects
// < 100% of value): the reference Values' direct solve is checked against.
// It reports whether the sweeps reached tol within maxIter.
func valuesGaussSeidel(s *System, typ ResourceType, maxIter int, tol float64) ([]float64, bool) {
	n := len(s.currencies)
	base, shares := s.valuationSystem(typ)

	// Group incoming shares by target for the sweep.
	in := make([][]share, n)
	for _, sh := range shares {
		in[sh.to] = append(in[sh.to], sh)
	}
	v := make([]float64, n)
	copy(v, base)
	for iter := 0; iter < maxIter; iter++ {
		worst := 0.0
		for c := 0; c < n; c++ {
			next := base[c]
			for _, sh := range in[c] {
				next += sh.frac * v[sh.from]
			}
			if d := math.Abs(next - v[c]); d > worst {
				worst = d
			}
			v[c] = next
		}
		if worst <= tol {
			return v, true
		}
	}
	return v, false
}

// TestValuesIterativeMatchesDirect checks Values, a direct solve, against
// the Gauss–Seidel reference on random systems.
func TestValuesIterativeMatchesDirect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSystem(rng, 2+rng.Intn(8))
		direct, errD := s.Values(disk)
		iter, converged := valuesGaussSeidel(s, disk, 10000, 1e-12)
		if errD != nil {
			// Direct solve failed (singular); the iteration must not
			// silently claim convergence to a different answer, but it can
			// also fail, so just accept.
			return true
		}
		if !converged {
			t.Logf("seed %d: the iteration did not converge where the direct solve succeeded", seed)
			return false
		}
		for i := range direct {
			if math.Abs(direct[i]-iter[i]) > 1e-6*(1+math.Abs(direct[i])) {
				t.Logf("seed %d: currency %d direct %g vs iterative %g", seed, i, direct[i], iter[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestValuesNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSystem(rng, 2+rng.Intn(8))
		v, err := s.Values(disk)
		if err != nil {
			return true
		}
		for _, x := range v {
			if x < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestValuesMonotoneInCapacity(t *testing.T) {
	// Raising any capacity must not lower any currency's value.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSystem(rng, 2+rng.Intn(6))
		before, err := s.Values(disk)
		if err != nil {
			return true
		}
		r := ResourceID(rng.Intn(len(s.resources)))
		if err := s.SetCapacity(r, s.Resource(r).Capacity+5); err != nil {
			return false
		}
		after, err := s.Values(disk)
		if err != nil {
			return false
		}
		for i := range before {
			if after[i] < before[i]-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestValuesIterativeNoConvergence checks that the Gauss–Seidel reference
// reports a non-contractive cycle, which Values refuses as singular, as not
// converged, so TestValuesIterativeMatchesDirect cannot pass on an answer
// the iteration never reached.
func TestValuesIterativeNoConvergence(t *testing.T) {
	s := NewSystem()
	a := s.AddPrincipal("A")
	b := s.AddPrincipal("B")
	if _, err := s.AddResource("ra", disk, a, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ShareRelative(s.CurrencyOf(a), s.CurrencyOf(b), 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ShareRelative(s.CurrencyOf(b), s.CurrencyOf(a), 1000); err != nil {
		t.Fatal(err)
	}
	if _, converged := valuesGaussSeidel(s, disk, 50, 1e-12); converged {
		t.Error("non-contractive cycle should fail to converge")
	}
}

func TestTicketValueRevokedAndWrongType(t *testing.T) {
	s, p := paperExample1(t)
	v, err := s.Values(disk)
	if err != nil {
		t.Fatal(err)
	}
	var abs TicketID = -1
	for _, tk := range s.tickets {
		if tk.Kind == Absolute && tk.Backs == s.CurrencyOf(p[2]) {
			abs = tk.ID
		}
	}
	if got := s.TicketValue(abs, "cpu", v); got != 0 {
		t.Errorf("absolute ticket value for wrong type = %g, want 0", got)
	}
	s.Revoke(abs)
	if got := s.TicketValue(abs, disk, v); got != 0 {
		t.Errorf("revoked ticket value = %g, want 0", got)
	}
}

// randomSystem builds a system with n principals, random capacities, and
// random relative agreements with conservative issue totals (so cycles are
// contractive and valuation well-defined most of the time).
func randomSystem(rng *rand.Rand, n int) *System {
	s := NewSystem()
	ids := make([]PrincipalID, n)
	for i := range ids {
		ids[i] = s.AddPrincipal(fmt.Sprintf("P%d", i))
		if _, err := s.AddResource(fmt.Sprintf("R%d", i), disk, ids[i], rng.Float64()*100); err != nil {
			panic(err)
		}
	}
	for i := 0; i < n; i++ {
		remaining := 0.9 // keep the row conservative
		for j := 0; j < n && remaining > 0.05; j++ {
			if i == j || rng.Float64() < 0.5 {
				continue
			}
			share := rng.Float64() * remaining * 0.8
			if share <= 0 {
				continue
			}
			remaining -= share
			cf := s.CurrencyOf(ids[i])
			if _, err := s.ShareRelative(cf, s.CurrencyOf(ids[j]), share*s.Currency(cf).FaceValue); err != nil {
				panic(err)
			}
		}
	}
	return s
}
