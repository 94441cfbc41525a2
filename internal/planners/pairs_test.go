package planners_test

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/modeltest"
	"repro/internal/planners"
)

// TestPairsAreTheDenseNonZeros holds every planner's pair form to its dense
// reference — the implementation the planner had before it emitted pairs
// (core's Plan for the LP allocator): the pairs are exactly the reference's
// non-zero takes, ascending, bit for bit, θ is the same float, Capacity(v, i)
// is Capacities(v)[i], and a refusal is the same refusal, with the slices
// handed back as given. It runs over every shape modeltest's generator
// draws, each requester, and requests from nothing to past capacity.
func TestPairsAreTheDenseNonZeros(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := map[modeltest.Shape]bool{}
	refusals := 0
	for c := 0; c < 400; c++ {
		g := modeltest.Generate(rng)
		shapes[g.Shape] = true
		s, a := sparse(g.S), sparse(g.A)
		cfg := core.Config{Level: g.Level}
		al, err := core.NewAllocator(s, a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := planners.NewProportional(s, a)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := planners.NewGreedy(s, a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		halves := [][]int{{}, {}}
		for i := 0; i < g.N; i++ {
			halves[2*i/g.N] = append(halves[2*i/g.N], i)
		}
		hi, err := planners.NewHierarchy(s, a, halves, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []struct {
			name string
			p    planners.Planner
		}{{"Allocator", al}, {"Proportional", pr}, {"Greedy", gr}, {"Hierarchy", hi}} {
			plan, capacities := planners.DenseReference(p.p)
			caps := capacities(g.V)
			for i, want := range caps {
				if got := p.p.Capacity(g.V, i); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("case %d %s: Capacity(v, %d) = %v, Capacities(v)[%d] = %v\n%s", c, p.name, i, got, i, want, g)
				}
			}
			for r := range caps {
				for _, frac := range []float64{-0.1, 0, 0.35, 0.8, 1, 1.3} {
					amount := caps[r] * frac
					if frac < 0 {
						amount = -1
					}
					want, wantErr := plan(g.V, r, amount)
					sources, takes, theta, err := p.p.PlanPairs([]int{-1}, []float64{-1}, g.V, r, amount)
					if (err == nil) != (wantErr == nil) || errors.Is(err, core.ErrInsufficient) != errors.Is(wantErr, core.ErrInsufficient) {
						t.Fatalf("case %d %s: request (%d, %g): pairs err %v, dense err %v\n%s", c, p.name, r, amount, err, wantErr, g)
					}
					if !slices.Equal(sources[:1], []int{-1}) || takes[0] != -1 {
						t.Fatalf("case %d %s: request (%d, %g): the slices' prefix was lost: %v %v", c, p.name, r, amount, sources, takes)
					}
					if err != nil {
						refusals++
						if len(sources) != 1 || len(takes) != 1 {
							t.Fatalf("case %d %s: refused request (%d, %g) appended %v %v", c, p.name, r, amount, sources, takes)
						}
						continue
					}
					var wantS []int
					var wantT []float64
					for i, x := range want.Take {
						if x != 0 {
							wantS, wantT = append(wantS, i), append(wantT, x)
						}
					}
					if !slices.Equal(sources[1:], wantS) || !slices.EqualFunc(takes[1:], wantT, sameBits) || !sameBits(theta, want.Theta) {
						t.Fatalf("case %d %s: request (%d, %g): pairs %v %v θ %v, dense non-zeros %v %v θ %v\n%s",
							c, p.name, r, amount, sources[1:], takes[1:], theta, wantS, wantT, want.Theta, g)
					}
				}
			}
		}
	}
	if len(shapes) != 5 || refusals == 0 {
		t.Fatalf("covered %d shapes and %d refusals; want all 5 shapes and some refusals", len(shapes), refusals)
	}
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
