package modeltest

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

// TestPairPlanProperty checks the served plan form against the dense
// exports over the generated taxonomy, under the full formulation and
// ComponentLP, on graphs with and without absolute agreements:
//
//   - PlanPairs returns exactly the non-zero entries of Plan's Take, and
//     the same θ, bit for bit;
//   - planning a sequence of requests one at a time against a view that
//     each successful plan is committed to (debit, clamped at zero) before
//     the next is planned — what the GRM's pipeline does under its state
//     lock — gives PlanBatch's result for every request, including the
//     ones after a request in the middle failed.
func TestPairPlanProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(*seedFlag))
	cases := 120
	if testing.Short() {
		cases = 30
	}
	plans, failures, withA := 0, 0, 0
	shapes := map[Shape]int{}
	for c := 0; c < cases; c++ {
		g := Generate(rng)
		for _, comp := range []bool{false, true} {
			cfg := core.Config{Level: g.Level, ComponentLP: comp}
			al, err := core.NewAllocator(g.S, g.A, cfg)
			if err != nil {
				continue // the closure budget refused the graph
			}
			caps := al.Capacities(g.V)
			var reqs []core.BatchRequest
			for r := 0; r < g.N; r++ {
				reqs = append(reqs, core.BatchRequest{Requester: r, Amount: grid(caps[r] * 0.25)})
				switch r % 3 {
				case 0:
					reqs = append(reqs, core.BatchRequest{Requester: r, Amount: caps[r] + 5}) // refused
				case 1:
					reqs = append(reqs, core.BatchRequest{Requester: r, Amount: 0})
				}
			}
			for r := 0; r < g.N; r++ {
				reqs = append(reqs, core.BatchRequest{Requester: r, Amount: grid(caps[r] * 0.5)})
			}

			// Each request alone.
			for _, req := range reqs {
				plan, perr := al.Plan(g.V, req.Requester, req.Amount)
				sources, takes, theta, err := al.PlanPairs(nil, nil, g.V, req.Requester, req.Amount)
				if (perr == nil) != (err == nil) || (err != nil && err.Error() != perr.Error()) {
					t.Fatalf("case %d %+v req %+v: Plan says %v, PlanPairs says %v\n%s", c, cfg, req, perr, err, g)
				}
				if err != nil {
					continue
				}
				checkPairs(t, g, cfg, req, sources, takes, theta, plan)
			}

			// The chain.
			cur := append([]float64(nil), g.V...)
			for k, res := range al.PlanBatch(g.V, reqs) {
				req := reqs[k]
				sources, takes, theta, err := al.PlanPairs(nil, nil, cur, req.Requester, req.Amount)
				if (res.Err == nil) != (err == nil) || (err != nil && err.Error() != res.Err.Error()) {
					t.Fatalf("case %d %+v request %d %+v: PlanBatch says %v, plan-and-commit says %v\n%s", c, cfg, k, req, res.Err, err, g)
				}
				if err != nil {
					failures++
					continue
				}
				plans++
				checkPairs(t, g, cfg, req, sources, takes, theta, res.Alloc)
				for x, p := range sources {
					if cur[p] -= takes[x]; cur[p] < 0 {
						cur[p] = 0
					}
				}
			}
		}
		shapes[g.Shape]++
		if g.A != nil {
			withA++
		}
	}
	if plans < cases || failures == 0 || withA == 0 || len(shapes) < 5 {
		t.Fatalf("thin coverage: %d chained plans, %d failed requests, %d graphs with absolute agreements, shapes %v", plans, failures, withA, shapes)
	}
	t.Logf("%d chained plans and %d failed requests over %d graphs (%d with absolute agreements, shapes %v)", plans, failures, cases, withA, shapes)
}

// checkPairs fails unless the pairs are the non-zero scan of the dense
// plan's Take and the two θ are the same float.
func checkPairs(t *testing.T, g *Graph, cfg core.Config, req core.BatchRequest, sources []int, takes []float64, theta float64, plan *core.Allocation) {
	t.Helper()
	wantS, wantT := store.SparseTakes(nil, plan.Take)
	same := len(sources) == len(wantS) && len(takes) == len(wantT)
	for k := 0; same && k < len(sources); k++ {
		same = sources[k] == wantS[k] && math.Float64bits(takes[k]) == math.Float64bits(wantT[k])
	}
	if !same {
		t.Fatalf("%+v req %+v: pairs %v %v, dense Take %v\n%s", cfg, req, sources, takes, plan.Take, g)
	}
	if math.Float64bits(theta) != math.Float64bits(plan.Theta) {
		t.Fatalf("%+v req %+v: pair θ %v, dense θ %v\n%s", cfg, req, theta, plan.Theta, g)
	}
}
