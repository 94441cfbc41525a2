package planners

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/num"
)

// This file keeps the planners' dense implementations as they were before
// every planner emitted (source, take) pairs: the reference the pair form
// is held to, bit for bit (TestPairsAreTheDenseNonZeros). It is an internal
// test file so the references can read each planner's allocators, and it
// exports them to the external test package, which may import modeltest.

// DenseReference returns p's dense plan and capacities as they were
// written before the pair form.
func DenseReference(p Planner) (plan func(v []float64, requester int, amount float64) (*core.Allocation, error), capacities func(v []float64) []float64) {
	switch p := p.(type) {
	case *core.Allocator:
		return p.Plan, p.Capacities
	case *Proportional:
		return p.densePlan, p.al.Capacities
	case *Greedy:
		return p.densePlan, p.al.Capacities
	case *Hierarchy:
		return p.densePlan, p.full.Capacities
	}
	panic(fmt.Sprintf("planners: no dense reference for %T", p))
}

func (p *Proportional) densePlan(v []float64, requester int, amount float64) (*core.Allocation, error) {
	n := p.al.N()
	if len(v) != n {
		panic(fmt.Sprintf("planners: got %d capacities for %d principals", len(v), n))
	}
	if amount < 0 {
		return nil, fmt.Errorf("planners: negative request %g", amount)
	}
	out := &core.Allocation{Take: make([]float64, n), NewV: append([]float64(nil), v...)}

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
	if remaining > 0 && totalW > 0 {
		for k, w := range weights {
			out.Take[k] = remaining * w / totalW // +0 off the agreements
		}
	}
	var placed float64
	for k := 0; k < n; k++ {
		if k != requester {
			placed += out.Take[k]
		}
	}
	// Whatever could not be placed stays home, possibly exceeding the
	// requester's availability (overload).
	out.Take[requester] = amount - placed
	for k := range out.NewV {
		out.NewV[k] = max(v[k]-out.Take[k], 0)
	}
	out.Theta = perturbation(p.al, v, out.NewV, requester)
	return out, nil
}

func (g *Greedy) densePlan(v []float64, requester int, amount float64) (*core.Allocation, error) {
	n := g.al.N()
	if len(v) != n {
		panic(fmt.Sprintf("planners: got %d capacities for %d principals", len(v), n))
	}
	if amount < 0 {
		return nil, fmt.Errorf("planners: negative request %g", amount)
	}
	if c := g.al.Capacity(v, requester); c < amount-1e-9 {
		return nil, fmt.Errorf("%w: principal %d has capacity %g, requested %g",
			core.ErrInsufficient, requester, c, amount)
	}
	out := &core.Allocation{Take: make([]float64, n), NewV: append([]float64(nil), v...)}
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
		for k := 0; k < n; k++ {
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
	out.Theta = perturbation(g.al, v, out.NewV, requester)
	return out, nil
}

func (h *Hierarchy) densePlan(v []float64, requester int, amount float64) (*core.Allocation, error) {
	if amount < 0 {
		return nil, fmt.Errorf("planners: negative request %g", amount)
	}
	n := h.full.N()
	out := &core.Allocation{Take: make([]float64, n), NewV: append([]float64(nil), v...)}
	if num.IsZero(amount) {
		return out, nil
	}
	g := h.of[requester]

	// Fine-only fast path: can the home group cover the request?
	if h.groupHeadroom(v, g, requester) >= amount-1e-9 {
		if err := h.denseRefineGroup(v, out, g, requester, amount); err != nil {
			return nil, err
		}
		out.Theta = perturbation(h.full, v, out.NewV, requester)
		return out, nil
	}

	// Coarse grid: distribute the request across groups.
	// A group can export at most what the requester may reach inside it.
	vg := make([]float64, len(h.groups))
	var reachable float64
	for gi := range h.groups {
		vg[gi] = h.groupHeadroom(v, gi, requester)
		reachable += vg[gi]
	}
	if reachable < amount-1e-9 {
		return nil, fmt.Errorf("%w: groups can supply %g of requested %g", core.ErrInsufficient, reachable, amount)
	}
	groupTake, err := h.coarsePlan(vg, g, amount)
	if err != nil {
		return nil, fmt.Errorf("planners: hierarchy coarse grid: %w", err)
	}

	// Fine grid: refine inside each contributing group.
	for gi := range h.groups {
		want := groupTake[gi]
		if want <= 1e-12 {
			continue
		}
		if err := h.denseRefineGroup(v, out, gi, requester, want); err != nil {
			return nil, err
		}
	}
	out.Theta = perturbation(h.full, v, out.NewV, requester)
	return out, nil
}

func (h *Hierarchy) denseRefineGroup(v []float64, out *core.Allocation, g, requester int, amount float64) error {
	members := h.groups[g]
	if have := h.groupHeadroom(v, g, requester); have < amount-1e-9 {
		return fmt.Errorf("%w: group %d can supply %g of requested %g", core.ErrInsufficient, g, have, amount)
	}
	caps := make([]float64, len(members))
	for idx, p := range members {
		caps[idx] = capToward(h.full, v, p, requester)
	}
	takes, err := gridLP(h.full, members, caps, requester, amount)
	if err != nil {
		return fmt.Errorf("planners: hierarchy fine grid (group %d): %w", g, err)
	}
	for idx, p := range members {
		amt := min(max(takes[idx], 0), out.NewV[p])
		out.Take[p] += amt
		out.NewV[p] -= amt
	}
	return nil
}
