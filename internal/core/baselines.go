package core

import (
	"fmt"

	"repro/internal/transitive"

	"repro/internal/num"
)

// Proportional is the paper's "endpoint enforcement" baseline (Figure 13):
// the request is split across sources in proportion to the *direct*
// agreement quantities S[k][requester], ignoring both transitive
// agreements and current availability. A busy source therefore still
// receives its proportional share of redirections — exactly the behaviour
// the centralized LP scheme is shown to beat.
type Proportional struct {
	n int
	s [][]float64
	a [][]float64
	// k holds direct (level-1) coefficients for the capacity report.
	k [][]float64
}

// NewProportional builds the endpoint-proportional baseline planner.
func NewProportional(s [][]float64, a [][]float64) (*Proportional, error) {
	if err := transitive.Validate(s); err != nil {
		return nil, err
	}
	return &Proportional{n: len(s), s: s, a: a, k: transitive.Cap(transitive.Exact(s, 1))}, nil
}

// Capacities reports direct-agreement capacities (level 1): endpoints
// cannot see transitive chains.
func (p *Proportional) Capacities(v []float64) []float64 {
	return transitive.Capacities(v, p.k, p.a)
}

// Plan splits the amount proportionally to direct agreement shares,
// availability-blind: the paper's endpoint scheme "tends to redistribute
// requests to nearby ISPs no matter whether they are busy or not", so a
// drained source still receives its proportional share (and the work
// queues there). Only what no agreement covers stays home.
func (p *Proportional) Plan(v []float64, requester int, amount float64) (*Allocation, error) {
	if len(v) != p.n {
		panic(fmt.Sprintf("core: got %d capacities for %d principals", len(v), p.n))
	}
	if amount < 0 {
		return nil, fmt.Errorf("core: negative request %g", amount)
	}
	out := &Allocation{Take: make([]float64, p.n), NewV: append([]float64(nil), v...)}

	// Own resources first.
	own := amount
	if own > v[requester] {
		own = v[requester]
	}
	remaining := amount - own

	weights := make([]float64, p.n)
	var totalW float64
	for k := 0; k < p.n; k++ {
		if k == requester {
			continue
		}
		w := p.s[k][requester]
		if p.a != nil && p.a[k][requester] > 0 {
			w += p.a[k][requester] / (1 + v[k]) // absolute quantities as weak weights
		}
		weights[k] = w
		totalW += w
	}
	if remaining > 0 && totalW > 0 {
		for k := 0; k < p.n; k++ {
			if num.IsZero(weights[k]) {
				continue
			}
			out.Take[k] = remaining * weights[k] / totalW
		}
	}
	var placed float64
	for k := 0; k < p.n; k++ {
		if k != requester {
			placed += out.Take[k]
		}
	}
	// Whatever could not be placed stays home, possibly exceeding the
	// requester's availability (overload).
	out.Take[requester] = amount - placed
	for k := 0; k < p.n; k++ {
		out.NewV[k] = v[k] - out.Take[k]
		if out.NewV[k] < 0 {
			out.NewV[k] = 0
		}
	}
	before := transitive.Capacities(v, p.k, p.a)
	after := transitive.Capacities(out.NewV, p.k, p.a)
	for i := range v {
		if i == requester {
			continue
		}
		if d := before[i] - after[i]; d > out.Theta {
			out.Theta = d
		}
	}
	return out, nil
}

// Greedy is an availability-aware but myopic planner: it draws from the
// sources with the largest per-requester headroom U_kA first, without
// considering the impact on anyone else's future capacity. It sits
// between Proportional and the LP scheme and is used by the ablation
// bench.
type Greedy struct {
	n int
	a [][]float64
	k [][]float64
}

// NewGreedy builds the greedy baseline with the same transitive
// coefficients as the LP allocator (level and approximation from cfg).
func NewGreedy(s [][]float64, a [][]float64, cfg Config) (*Greedy, error) {
	al, err := NewAllocator(s, a, cfg)
	if err != nil {
		return nil, err
	}
	return &Greedy{n: al.n, a: al.denseA(), k: al.FlowCoefficients()}, nil
}

// Capacities returns C_i with the configured transitivity level.
func (g *Greedy) Capacities(v []float64) []float64 {
	return transitive.Capacities(v, g.k, g.a)
}

// Plan takes from the requester first, then from sources in decreasing
// order of available headroom. Returns ErrInsufficient when capacity is
// short.
func (g *Greedy) Plan(v []float64, requester int, amount float64) (*Allocation, error) {
	if len(v) != g.n {
		panic(fmt.Sprintf("core: got %d capacities for %d principals", len(v), g.n))
	}
	if amount < 0 {
		return nil, fmt.Errorf("core: negative request %g", amount)
	}
	caps := g.Capacities(v)
	if caps[requester] < amount-1e-9 {
		return nil, fmt.Errorf("%w: principal %d has capacity %g, requested %g",
			ErrInsufficient, requester, caps[requester], amount)
	}
	out := &Allocation{Take: make([]float64, g.n), NewV: append([]float64(nil), v...)}
	remaining := amount

	take := func(i int, cap float64) {
		amt := cap
		if amt > remaining {
			amt = remaining
		}
		if amt <= 0 {
			return
		}
		out.Take[i] += amt
		out.NewV[i] -= amt
		remaining -= amt
	}
	take(requester, v[requester])
	for remaining > 1e-12 {
		best, bestCap := -1, 0.0
		for k := 0; k < g.n; k++ {
			if k == requester {
				continue
			}
			u := g.headroom(out.NewV, k, requester, out.Take[k])
			if u > bestCap {
				best, bestCap = k, u
			}
		}
		if best < 0 {
			break // numerical residue; caps said feasible
		}
		take(best, bestCap)
	}
	before := caps
	after := transitive.Capacities(out.NewV, g.k, g.a)
	for i := range v {
		if i == requester {
			continue
		}
		if d := before[i] - after[i]; d > out.Theta {
			out.Theta = d
		}
	}
	return out, nil
}

// headroom is U_kA evaluated at the current residual availability, minus
// what was already taken from k for this request.
func (g *Greedy) headroom(v []float64, k, requester int, alreadyTaken float64) float64 {
	u := (v[k] + alreadyTaken) * g.k[k][requester]
	if g.a != nil {
		u += g.a[k][requester]
	}
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

var (
	_ Planner = (*Allocator)(nil)
	_ Planner = (*Proportional)(nil)
	_ Planner = (*Greedy)(nil)
)
