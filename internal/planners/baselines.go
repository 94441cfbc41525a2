package planners

import (
	"fmt"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/num"
	"repro/internal/transitive"
)

// Planner is the common interface of the LP allocator, which satisfies it
// as it is, and the baseline schemes: decide where to take `amount` units
// for `requester` given the current per-principal availability v.
type Planner interface {
	// PlanPairs appends the plan's non-zero takes, ascending by source, and
	// returns the grown slices with θ, or the slices as given and an error
	// (core.ErrInsufficient among them).
	PlanPairs(sources []int, takes []float64, v []float64, requester int, amount float64) ([]int, []float64, float64, error)
	// Capacity returns C_i at availability v.
	Capacity(v []float64, i int) float64
}

// Pairs is one plan in pair form: Takes[k] drawn from principal
// Sources[k], ascending and non-zero, and θ.
type Pairs struct {
	Sources []int
	Takes   []float64
	Theta   float64
}

// Proportional is the paper's "endpoint enforcement" baseline (Figure 13):
// the request is split across sources in proportion to the *direct*
// agreement quantities S[k][requester], ignoring both transitive
// agreements and current availability. A busy source therefore still
// receives its proportional share of redirections — exactly the behaviour
// the centralized LP scheme is shown to beat.
type Proportional struct {
	// al holds the agreements and the direct (level-1) coefficients the
	// capacity report uses.
	al *core.Allocator
}

// NewProportional builds the endpoint-proportional baseline planner.
func NewProportional(s, a *agreement.SparseMatrix) (*Proportional, error) {
	al, err := core.NewAllocator(s, a, core.Config{Level: 1})
	if err != nil {
		return nil, err
	}
	return &Proportional{al: al}, nil
}

// Capacity reports a direct-agreement capacity (level 1): endpoints
// cannot see transitive chains.
func (p *Proportional) Capacity(v []float64, i int) float64 { return p.al.Capacity(v, i) }

// PlanPairs splits the amount proportionally to direct agreement shares,
// availability-blind: the paper's endpoint scheme "tends to redistribute
// requests to nearby ISPs no matter whether they are busy or not", so a
// drained source still receives its proportional share (and the work
// queues there). Only what no agreement covers stays home.
func (p *Proportional) PlanPairs(sources []int, takes []float64, v []float64, requester int, amount float64) ([]int, []float64, float64, error) {
	n := p.al.N()
	if len(v) != n {
		panic(fmt.Sprintf("planners: got %d capacities for %d principals", len(v), n))
	}
	if amount < 0 {
		return sources, takes, 0, fmt.Errorf("planners: negative request %g", amount)
	}
	take, newV := make([]float64, n), make([]float64, n)

	// Own resources first.
	remaining := amount - min(amount, v[requester])

	weights := make([]float64, n)
	var totalW float64
	for k := 0; k < n; k++ {
		if k == requester {
			continue
		}
		w := p.al.Share(k, requester)
		if a := p.al.Agreement(k, requester); a > 0 {
			w += a / (1 + v[k]) // absolute quantities as weak weights
		}
		weights[k] = w
		totalW += w
	}
	var placed float64 // the requester's weight is 0, so it adds +0
	if remaining > 0 && totalW > 0 {
		for k, w := range weights {
			take[k] = remaining * w / totalW // +0 off the agreements
			placed += take[k]
		}
	}
	// Whatever could not be placed stays home, possibly exceeding the
	// requester's availability (overload).
	take[requester] = amount - placed
	for k := range newV {
		newV[k] = max(v[k]-take[k], 0)
	}
	sources, takes = appendPairs(sources, takes, take)
	return sources, takes, perturbation(p.al, v, newV, requester), nil
}

// Greedy is an availability-aware but myopic planner: it draws from the
// sources with the largest per-requester headroom U_kA first, without
// considering the impact on anyone else's future capacity. It sits
// between Proportional and the LP scheme and is used by the ablation
// bench.
type Greedy struct {
	al *core.Allocator
}

// NewGreedy builds the greedy baseline with the same transitive
// coefficients as the LP allocator (the level from cfg).
func NewGreedy(s, a *agreement.SparseMatrix, cfg core.Config) (*Greedy, error) {
	al, err := core.NewAllocator(s, a, cfg)
	if err != nil {
		return nil, err
	}
	return &Greedy{al: al}, nil
}

// Capacity returns C_i with the configured transitivity level.
func (g *Greedy) Capacity(v []float64, i int) float64 { return g.al.Capacity(v, i) }

// PlanPairs takes from the requester first, then from sources in decreasing
// order of available headroom. Returns core.ErrInsufficient when capacity
// is short.
func (g *Greedy) PlanPairs(sources []int, takes []float64, v []float64, requester int, amount float64) ([]int, []float64, float64, error) {
	n := g.al.N()
	if len(v) != n {
		panic(fmt.Sprintf("planners: got %d capacities for %d principals", len(v), n))
	}
	if amount < 0 {
		return sources, takes, 0, fmt.Errorf("planners: negative request %g", amount)
	}
	if c := g.al.Capacity(v, requester); c < amount-1e-9 {
		return sources, takes, 0, fmt.Errorf("%w: principal %d has capacity %g, requested %g",
			core.ErrInsufficient, requester, c, amount)
	}
	take, newV := make([]float64, n), append([]float64(nil), v...)
	remaining := amount

	draw := func(i int, cap float64) {
		amt := cap
		if amt > remaining {
			amt = remaining
		}
		if amt <= 0 {
			return
		}
		take[i] += amt
		newV[i] -= amt
		remaining -= amt
	}
	draw(requester, v[requester])
	for remaining > 1e-12 {
		best, bestCap := -1, 0.0
		for k := 0; k < n; k++ {
			if k == requester {
				continue
			}
			u := g.headroom(newV, k, requester, take[k])
			if u > bestCap {
				best, bestCap = k, u
			}
		}
		if best < 0 {
			break // numerical residue; caps said feasible
		}
		draw(best, bestCap)
	}
	sources, takes = appendPairs(sources, takes, take)
	return sources, takes, perturbation(g.al, v, newV, requester), nil
}

// headroom is U_kA evaluated at the current residual availability, minus
// what was already taken from k for this request.
func (g *Greedy) headroom(v []float64, k, requester int, alreadyTaken float64) float64 {
	u := (v[k]+alreadyTaken)*kAt(g.al, k, requester) + g.al.Agreement(k, requester)
	if u > v[k]+alreadyTaken {
		u = v[k] + alreadyTaken
	}
	u -= alreadyTaken
	if u > v[k] {
		u = v[k]
	}
	if u < 0 {
		u = 0
	}
	return u
}

// appendPairs appends the non-zero entries of the dense take vector to
// sources and takes, ascending by source.
func appendPairs(sources []int, takes []float64, take []float64) ([]int, []float64) {
	for i, t := range take {
		if !num.IsZero(t) {
			sources, takes = append(sources, i), append(takes, t)
		}
	}
	return sources, takes
}

// perturbation recomputes θ = max_{i≠requester} (C_i − C'_i) from first
// principles for an allocation in dense form, with al's capacities.
func perturbation(al *core.Allocator, v, newV []float64, requester int) float64 {
	before, after := al.Capacities(v), al.Capacities(newV)
	worst := 0.0
	for i := range before {
		if d := before[i] - after[i]; i != requester && d > worst {
			worst = d
		}
	}
	return worst
}

// kAt returns K[k][i], the capped flow coefficient al stores in row k, 0
// when unstored.
func kAt(al *core.Allocator, k, i int) float64 {
	cols, _, kv := al.FlowRow(k)
	return transitive.At(cols, kv, i)
}

// capToward returns U_iA: how much of principal i's current availability
// the requester may draw — min(V_i·K_iA + A_iA, V_i), all of V_i for the
// requester itself.
func capToward(al *core.Allocator, v []float64, i, requester int) float64 {
	if i == requester {
		return v[i]
	}
	return min(v[i]*kAt(al, i, requester)+al.Agreement(i, requester), v[i])
}
