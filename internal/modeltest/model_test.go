package modeltest

import (
	"flag"
	"math/rand"
	"testing"

	"repro/internal/num"
)

var (
	seedFlag  = flag.Int64("seed", 1, "base seed for the model-based property campaign")
	itersFlag = flag.Int("iters", 150, "number of generated graphs to check")
)

// TestModelProperties is the main campaign: generate graphs from the
// seeded stream and check every paper invariant on each. Replay a failure
// with: go test ./internal/modeltest -run TestModelProperties -seed <s> -iters 1
func TestModelProperties(t *testing.T) {
	rep := Run(Options{Seed: *seedFlag, Iters: *itersFlag})
	if rep.Failure != nil {
		t.Fatal(rep.Failure.Error())
	}
	t.Logf("checked %d graphs (base seed %d)", rep.Cases, *seedFlag)
}

// TestModelGeneratorCoverage makes sure the seeded stream actually spans
// the taxonomy: every shape, both overdraft settings, absolute matrices,
// and partial transitivity levels all appear.
func TestModelGeneratorCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(*seedFlag))
	shapes := map[Shape]int{}
	var overdraft, plain, withA, partial int
	for i := 0; i < 400; i++ {
		g := Generate(rng)
		shapes[g.Shape]++
		if g.Overdraft {
			overdraft++
		} else {
			plain++
		}
		if g.A != nil {
			withA++
		}
		if g.Level != 0 {
			partial++
		}
		if g.N < minPrincipals || g.N > maxPrincipals {
			t.Fatalf("graph %d has %d principals, outside [%d, %d]", i, g.N, minPrincipals, maxPrincipals)
		}
		for j := range g.S {
			if g.S[j][j] != 0 {
				t.Fatalf("graph %d has self-agreement S[%d][%d] = %g", i, j, j, g.S[j][j])
			}
		}
		if !g.Overdraft {
			for j, row := range g.S {
				var sum float64
				for _, x := range row {
					sum += x
				}
				if sum > 1+1e-9 {
					t.Fatalf("graph %d row %d sums to %g without overdraft", i, j, sum)
				}
			}
		}
	}
	for s := Complete; s <= Irregular; s++ {
		if shapes[s] == 0 {
			t.Errorf("shape %v never generated in 400 draws", s)
		}
	}
	if overdraft == 0 || plain == 0 {
		t.Errorf("overdraft split degenerate: %d on / %d off", overdraft, plain)
	}
	if withA == 0 {
		t.Errorf("no graph carried absolute agreements in 400 draws")
	}
	if partial == 0 {
		t.Errorf("no graph used a partial transitivity level in 400 draws")
	}
}

// TestModelDeterminism: the same seed must yield the same graph, byte for
// byte — the whole replay story depends on it.
func TestModelDeterminism(t *testing.T) {
	for s := int64(0); s < 20; s++ {
		a := Generate(rand.New(rand.NewSource(s)))
		b := Generate(rand.New(rand.NewSource(s)))
		if a.String() != b.String() {
			t.Fatalf("seed %d generated two different graphs:\n%s\n%s", s, a, b)
		}
	}
}

// TestModelShrinkerKeepsFailing: whatever the shrinker returns must still
// fail the original predicate and respect the size floor.
func TestModelShrinkerKeepsFailing(t *testing.T) {
	g := Generate(rand.New(rand.NewSource(7)))
	// A synthetic predicate: "some availability exceeds 2". The shrinker
	// should strip everything irrelevant while keeping one big V.
	fails := func(c *Graph) bool {
		for _, v := range c.V {
			if v > 2 {
				return true
			}
		}
		return false
	}
	if !fails(g) {
		t.Skip("seed 7 graph does not trip the synthetic predicate")
	}
	shrunk := Shrink(g, fails)
	if !fails(shrunk) {
		t.Fatalf("shrunk graph no longer fails: %s", shrunk)
	}
	if shrunk.N < minPrincipals {
		t.Fatalf("shrunk below the size floor: %d principals", shrunk.N)
	}
	if shrunk.N > g.N {
		t.Fatalf("shrinker grew the graph: %d -> %d", g.N, shrunk.N)
	}
}

// TestModelOracleTransitiveKnownValues pins the recursive oracle to
// hand-computed flow coefficients on the paper's two-hop example shape.
func TestModelOracleTransitiveKnownValues(t *testing.T) {
	// 0 -> 1 (0.5), 1 -> 2 (0.5): T_02 through the chain is 0.25.
	s := [][]float64{
		{0, 0.5, 0},
		{0, 0, 0.5},
		{0, 0, 0},
	}
	tm := RefTransitive(s, 0)
	if tm[0][1] != 0.5 || tm[1][2] != 0.5 {
		t.Fatalf("direct coefficients wrong: %v", tm)
	}
	if tm[0][2] != 0.25 {
		t.Fatalf("T[0][2] = %g, want 0.25 (0.5 × 0.5 chain)", tm[0][2])
	}
	// Level 1 must cut the chain.
	tm1 := RefTransitive(s, 1)
	if tm1[0][2] != 0 {
		t.Fatalf("level-1 T[0][2] = %g, want 0", tm1[0][2])
	}
	// A 2-cycle with shares 1: each principal reaches the other fully, and
	// the cycle-free restriction stops the flow from circulating forever.
	loop := [][]float64{
		{0, 1},
		{1, 0},
	}
	lt := RefTransitive(loop, 0)
	if lt[0][1] != 1 || lt[1][0] != 1 {
		t.Fatalf("loop coefficients wrong: %v", lt)
	}
}

// TestExactMatchesOracleOnCliques holds the exact closure, read through
// Closure.FlowRow, to the recursive oracle on complete graphs of 3 to 9
// principals at every level: the dense end of the space, where the
// generator's graphs rarely go and where the closure sums a row by subset
// DP instead of enumerating it (from 7 principals up at full level). Shares are unequal and some exceed 1.
// The two add the same chains in different orders and must agree to
// num.ChainSumTol.
func TestExactMatchesOracleOnCliques(t *testing.T) {
	for n := 3; n <= 9; n++ {
		rng := rand.New(rand.NewSource(int64(n)))
		s := zeroMatrix(n)
		for i := range s {
			for j := range s[i] {
				if i != j {
					s[i][j] = 0.02 + 1.2*rng.Float64()*rng.Float64()
				}
			}
		}
		for level := 1; level < n; level++ {
			got, want := closureT(s, level), RefTransitive(s, level)
			for i := range want {
				for j := range want[i] {
					if !num.EqChainSum(got[i][j], want[i][j]) {
						t.Fatalf("K%d level %d: T[%d][%d] = %v, recursive oracle says %v", n, level, i, j, got[i][j], want[i][j])
					}
				}
			}
		}
	}
}
