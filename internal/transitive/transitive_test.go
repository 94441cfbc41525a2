package transitive

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g", what, got, want)
	}
}

func TestValidate(t *testing.T) {
	ok := [][]float64{{0, 0.3}, {0.2, 0}}
	if err := Validate(ok); err != nil {
		t.Errorf("valid matrix rejected: %v", err)
	}
	bad := [][][]float64{
		{{0, 0.3}},                 // not square
		{{0.1, 0.3}, {0.2, 0}},     // diagonal
		{{0, -0.3}, {0.2, 0}},      // negative
		{{0, 0.3, 0}, {0.2, 0, 0}}, // ragged
	}
	for i, s := range bad {
		if err := Validate(s); err == nil {
			t.Errorf("case %d: invalid matrix accepted", i)
		}
	}
}

func TestExactTwoNodeChain(t *testing.T) {
	// 0 -> 1 at 30%: T[0][1] = 0.3 at every level, T[1][0] = 0.
	s := [][]float64{{0, 0.3}, {0, 0}}
	tm := Exact(s, 1)
	almost(t, tm[0][1], 0.3, 1e-12, "T[0][1]")
	almost(t, tm[1][0], 0, 1e-12, "T[1][0]")
}

func TestExactThreeNodeChainLevels(t *testing.T) {
	// 0 -> 1 (50%), 1 -> 2 (40%).
	s := [][]float64{
		{0, 0.5, 0},
		{0, 0, 0.4},
		{0, 0, 0},
	}
	lvl1 := Exact(s, 1)
	almost(t, lvl1[0][2], 0, 1e-12, "level-1 T[0][2]")
	lvl2 := Exact(s, 2)
	almost(t, lvl2[0][2], 0.2, 1e-12, "level-2 T[0][2]")
	almost(t, lvl2[0][1], 0.5, 1e-12, "level-2 T[0][1]")
}

func TestExactPaperOverdraftExample(t *testing.T) {
	// Section 3.2: A shares 60% with B and 60% with C; B shares 100% with
	// C. A owns 10. Uncapped T[A][C] = 0.6 + 0.6 = 1.2; capped K = 1, so C
	// can obtain 10 rather than 12.
	s := [][]float64{
		{0, 0.6, 0.6},
		{0, 0, 1.0},
		{0, 0, 0},
	}
	tm := Exact(s, 2)
	almost(t, tm[0][2], 1.2, 1e-12, "T[A][C]")
	k := Cap(tm)
	almost(t, k[0][2], 1.0, 1e-12, "K[A][C]")
	v := []float64{10, 0, 0}
	c := Capacities(v, k, nil)
	almost(t, c[2], 10, 1e-12, "C capacity with cap")
	cUncapped := Capacities(v, tm, nil)
	// Even uncapped, SourceCaps clamps at V_k = 10.
	almost(t, cUncapped[2], 10, 1e-12, "C capacity clamped by V_k")
}

func TestExactCycleExcluded(t *testing.T) {
	// Two-node mutual agreement: chains cannot revisit the source, so
	// T[0][1] is exactly S[0][1] at any level.
	s := [][]float64{{0, 0.5}, {0.5, 0}}
	tm := Exact(s, 5)
	almost(t, tm[0][1], 0.5, 1e-12, "T[0][1]")
	almost(t, tm[1][0], 0.5, 1e-12, "T[1][0]")
}

func TestExactLoopStructure(t *testing.T) {
	// Ring of 4, each sharing 80% with the next.
	n := 4
	s := ring(n, 0.8)
	lvl1 := Exact(s, 1)
	almost(t, lvl1[0][1], 0.8, 1e-12, "level-1 next")
	almost(t, lvl1[0][2], 0, 1e-12, "level-1 two hops")
	lvl3 := Exact(s, 3)
	almost(t, lvl3[0][1], 0.8, 1e-12, "level-3 next")
	almost(t, lvl3[0][2], 0.64, 1e-12, "level-3 two hops")
	almost(t, lvl3[0][3], 0.512, 1e-12, "level-3 three hops")
	// No wrap-around: the chain 0->1->2->3->0 would revisit 0.
	almost(t, lvl3[0][0], 0, 1e-12, "self flow")
}

func TestApproxEqualsExactOnDAG(t *testing.T) {
	s := [][]float64{
		{0, 0.5, 0.2, 0},
		{0, 0, 0.3, 0.1},
		{0, 0, 0, 0.7},
		{0, 0, 0, 0},
	}
	for level := 1; level <= 3; level++ {
		e := Exact(s, level)
		a := Approx(s, level)
		for i := range e {
			for j := range e[i] {
				almost(t, a[i][j], e[i][j], 1e-12, "DAG approx vs exact")
			}
		}
	}
}

func TestApproxUpperBoundsExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomAgreements(rng, 2+rng.Intn(6))
		level := 1 + rng.Intn(len(s))
		e := Exact(s, level)
		a := Approx(s, level)
		for i := range e {
			for j := range e[i] {
				if a[i][j] < e[i][j]-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExactMonotoneInLevel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomAgreements(rng, 2+rng.Intn(6))
		n := len(s)
		prev := Exact(s, 1)
		for level := 2; level < n; level++ {
			cur := Exact(s, level)
			for i := range cur {
				for j := range cur[i] {
					if cur[i][j] < prev[i][j]-1e-12 {
						return false
					}
				}
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCapacitiesAtLeastOwn(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomAgreements(rng, 2+rng.Intn(6))
		v := make([]float64, len(s))
		for i := range v {
			v[i] = rng.Float64() * 100
		}
		c := Capacities(v, Cap(Exact(s, len(s)-1)), nil)
		for i := range c {
			if c[i] < v[i]-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCapacitiesBoundedByTotal(t *testing.T) {
	// With capping, nobody's capacity exceeds the system total.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomAgreements(rng, 2+rng.Intn(6))
		v := make([]float64, len(s))
		total := 0.0
		for i := range v {
			v[i] = rng.Float64() * 100
			total += v[i]
		}
		c := Capacities(v, Cap(Exact(s, len(s)-1)), nil)
		for i := range c {
			if c[i] > total+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAbsoluteAgreements(t *testing.T) {
	// A (V=10) has an absolute agreement of 3 with C and no relative ones.
	s := [][]float64{
		{0, 0, 0},
		{0, 0, 0},
		{0, 0, 0},
	}
	a := [][]float64{
		{0, 0, 3},
		{0, 0, 0},
		{0, 0, 0},
	}
	v := []float64{10, 0, 5}
	tm := Exact(s, 2)
	c := Capacities(v, tm, a)
	almost(t, c[2], 8, 1e-12, "C = 5 own + 3 absolute")
	almost(t, c[0], 10, 1e-12, "A keeps 10")

	// Absolute promise larger than the source owns is clamped to V_k.
	a[0][2] = 25
	c = Capacities(v, tm, a)
	almost(t, c[2], 15, 1e-12, "C clamped to 5 + V_A")
}

func TestAbsolutePlusRelativeClamp(t *testing.T) {
	// U_ki = min(I + A, V_k): 60% of 10 plus absolute 7 exceeds 10.
	s := [][]float64{{0, 0.6}, {0, 0}}
	a := [][]float64{{0, 7}, {0, 0}}
	v := []float64{10, 1}
	c := Capacities(v, Exact(s, 1), a)
	almost(t, c[1], 11, 1e-12, "B = 1 own + min(6+7, 10)")
}

func TestLevelClamping(t *testing.T) {
	s := ring(5, 0.5)
	full := Exact(s, 4)
	over := Exact(s, 100)
	under := Exact(s, 0)
	lvl1 := Exact(s, 1)
	for i := range full {
		for j := range full[i] {
			almost(t, over[i][j], full[i][j], 1e-12, "level > n-1 clamps to n-1")
			almost(t, under[i][j], lvl1[i][j], 1e-12, "level < 1 clamps to 1")
		}
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	bad := [][]float64{{1}}
	for name, f := range map[string]func(){
		"Exact":  func() { Exact(bad, 1) },
		"Approx": func() { Approx(bad, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic on bad input", name)
				}
			}()
			f()
		}()
	}
}

func ring(n int, share float64) [][]float64 {
	s := make([][]float64, n)
	for i := range s {
		s[i] = make([]float64, n)
		s[i][(i+1)%n] = share
	}
	return s
}

func randomAgreements(rng *rand.Rand, n int) [][]float64 {
	s := make([][]float64, n)
	for i := range s {
		s[i] = make([]float64, n)
		for j := range s[i] {
			if i != j && rng.Float64() < 0.5 {
				s[i][j] = rng.Float64() * 0.5
			}
		}
	}
	return s
}

// csrOf is the row-sparse form of a dense matrix.
func csrOf(s [][]float64) (int, [][]int32, [][]float64) {
	adj, vals := make([][]int32, len(s)), make([][]float64, len(s))
	for i, row := range s {
		adj[i], vals[i] = RowOf(row)
	}
	return len(s), adj, vals
}

func TestWithinBudget(t *testing.T) {
	n, adj, vals := csrOf(ring(5, 0.5))
	if _, err := NewClosureBudget(n, adj, vals, 4, false, 1000); err != nil {
		t.Errorf("small ring should fit a 1000-step budget: %v", err)
	}
	// A complete 20-node graph is past the DP's reach, so it enumerates
	// until the budget stops it — promptly, whatever the graph would cost.
	n, adj, vals = csrOf(complete(20, 0.1))
	c, err := NewClosureBudget(n, adj, vals, 19, false, 100000)
	if !errors.Is(err, ErrBudget) || c != nil {
		t.Errorf("dense 20-node graph under a 100k-step budget: closure %v, err %v, want ErrBudget", c, err)
	}
	// Approx is polynomial and never refused.
	if _, err := NewClosureBudget(n, adj, vals, 19, true, 1); err != nil {
		t.Errorf("approx build refused: %v", err)
	}
}

func TestWithinBudgetMatchesExactCost(t *testing.T) {
	// The budget is charged what the build does: a ring of 8 at full level
	// enumerates 7 chains a row, so 56 steps fit and 55 do not, and the
	// admitted closure is the unbudgeted one.
	s := ring(8, 0.9)
	n, adj, vals := csrOf(s)
	c, err := NewClosureBudget(n, adj, vals, 7, false, 56)
	if err != nil {
		t.Fatalf("ring under its exact cost: %v", err)
	}
	requireBitEqual(t, c.T(), Exact(s, 7), "budgeted build")
	if _, err := NewClosureBudget(n, adj, vals, 7, false, 55); !errors.Is(err, ErrBudget) {
		t.Fatalf("ring one step short: err = %v, want ErrBudget", err)
	}
}

// complete is the complete graph on n principals with one share.
func complete(n int, share float64) [][]float64 {
	s := zeros(n)
	for i := range s {
		for j := range s[i] {
			if i != j {
				s[i][j] = share
			}
		}
	}
	return s
}
