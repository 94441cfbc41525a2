package planners

import (
	"fmt"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/num"
)

// Hierarchy implements the multi-grid refinement of Section 3.2 for
// hierarchical agreement structures: "once a request comes to a group and
// that group cannot satisfy it, we use LP to find the distribution of
// resources among groups; based on the distribution result, we run LP
// inside each group to further refine the allocation."
//
// The coarse grid aggregates each group into one pseudo-principal
// (capacity = group sum; inter-group share = average of member-to-member
// shares) and solves a small LP; the fine grid then solves one LP per
// contributing group, each over only that group's members. For g groups of
// size k this costs O(g³ + g·k³) simplex work instead of O((gk)³).
type Hierarchy struct {
	full   *core.Allocator
	groups [][]int
	of     []int // principal -> group index
	coarse *core.Allocator
}

// NewHierarchy builds a hierarchical planner over the full agreement
// matrices with the given disjoint groups covering all principals.
func NewHierarchy(s, a *agreement.SparseMatrix, groups [][]int, cfg core.Config) (*Hierarchy, error) {
	full, err := core.NewAllocator(s, a, cfg)
	if err != nil {
		return nil, err
	}
	n := full.N()
	of := make([]int, n)
	for i := range of {
		of[i] = -1
	}
	for g, members := range groups {
		if len(members) == 0 {
			return nil, fmt.Errorf("planners: NewHierarchy: group %d is empty", g)
		}
		for _, p := range members {
			if p < 0 || p >= n {
				return nil, fmt.Errorf("planners: NewHierarchy: group %d member %d out of range", g, p)
			}
			if of[p] != -1 {
				return nil, fmt.Errorf("planners: NewHierarchy: principal %d in two groups", p)
			}
			of[p] = g
		}
	}
	for p, g := range of {
		if g == -1 {
			return nil, fmt.Errorf("planners: NewHierarchy: principal %d not in any group", p)
		}
	}

	// Coarse matrices: average member-to-member share between groups,
	// accumulated over the stored entries in row order (an unstored zero
	// adds nothing) and imported once.
	ng := len(groups)
	sg := make([][]float64, ng)
	var ag [][]float64
	if a != nil {
		ag = make([][]float64, ng)
	}
	for g := range groups {
		sg[g] = make([]float64, ng)
		if ag != nil {
			ag[g] = make([]float64, ng)
		}
	}
	for i := 0; i < n; i++ {
		gi := of[i]
		cols, vals := s.Row(i)
		for k, j := range cols {
			if gj := of[j]; gj != gi {
				sg[gi][gj] += vals[k] / float64(len(groups[gi]))
			}
		}
		if a == nil {
			continue
		}
		cols, vals = a.Row(i)
		for k, j := range cols {
			if gj := of[j]; gj != gi {
				ag[gi][gj] += vals[k]
			}
		}
	}
	for g := range sg {
		var sum float64
		for _, x := range sg[g] {
			sum += x
		}
		if sum > 1 {
			// Keep the coarse model conservative; the fine grid enforces
			// the real per-member caps anyway.
			for j := range sg[g] {
				sg[g][j] /= sum
			}
		}
	}
	coarseS, _ := agreement.SparseOf(sg) // square by construction
	coarseA, _ := agreement.SparseOf(ag)
	coarse, err := core.NewAllocator(coarseS, coarseA, core.Config{Level: cfg.Level})
	if err != nil {
		return nil, fmt.Errorf("planners: NewHierarchy: coarse allocator: %w", err)
	}
	return &Hierarchy{full: full, groups: groups, of: of, coarse: coarse}, nil
}

// Capacity reports the exact (full-matrix) capacity.
func (h *Hierarchy) Capacity(v []float64, i int) float64 { return h.full.Capacity(v, i) }

// PlanPairs allocates using multi-grid refinement. If the requester's own
// group can satisfy the request it never leaves the group; otherwise the
// coarse LP splits the request across groups and a fine LP inside each
// contributing group picks the actual sources.
func (h *Hierarchy) PlanPairs(sources []int, takes []float64, v []float64, requester int, amount float64) ([]int, []float64, float64, error) {
	if amount < 0 {
		return sources, takes, 0, fmt.Errorf("planners: negative request %g", amount)
	}
	if num.IsZero(amount) {
		return sources, takes, 0, nil
	}
	take, newV := make([]float64, h.full.N()), append([]float64(nil), v...)
	g := h.of[requester]

	// Fine-only fast path: can the home group cover the request?
	if h.groupHeadroom(v, g, requester) >= amount-1e-9 {
		if err := h.refineGroup(v, take, newV, g, requester, amount); err != nil {
			return sources, takes, 0, err
		}
		sources, takes = appendPairs(sources, takes, take)
		return sources, takes, perturbation(h.full, v, newV, requester), nil
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
		return sources, takes, 0, fmt.Errorf("%w: groups can supply %g of requested %g", core.ErrInsufficient, reachable, amount)
	}
	groupTake, err := h.coarsePlan(vg, g, amount)
	if err != nil {
		return sources, takes, 0, fmt.Errorf("planners: hierarchy coarse grid: %w", err)
	}

	// Fine grid: refine inside each contributing group.
	for gi := range h.groups {
		want := groupTake[gi]
		if want <= 1e-12 {
			continue
		}
		if err := h.refineGroup(v, take, newV, gi, requester, want); err != nil {
			return sources, takes, 0, err
		}
	}
	sources, takes = appendPairs(sources, takes, take)
	return sources, takes, perturbation(h.full, v, newV, requester), nil
}

// coarsePlan distributes `amount` across groups: take_g ∈ [0, vg_g],
// Σ take = amount, minimizing the worst group-level capacity perturbation
// measured with the averaged inter-group coefficients. Take bounds use the
// exportable headroom directly (vg is already capped per member), so the
// averaged coefficients steer the objective without re-capping supply.
func (h *Hierarchy) coarsePlan(vg []float64, home int, amount float64) ([]float64, error) {
	groups := make([]int, len(vg))
	for gi := range groups {
		groups[gi] = gi
	}
	out, err := gridLP(h.coarse, groups, vg, home, amount)
	if err != nil {
		return nil, err
	}
	for gi, x := range out {
		out[gi] = min(max(x, 0), vg[gi])
	}
	// Absorb round-off in the home group if possible.
	var sum float64
	for _, x := range out {
		sum += x
	}
	if resid := amount - sum; !num.IsZero(resid) && out[home]+resid >= 0 && out[home]+resid <= vg[home] {
		out[home] += resid
	}
	return out, nil
}

// groupHeadroom is the amount group g can supply toward the requester.
func (h *Hierarchy) groupHeadroom(v []float64, g, requester int) float64 {
	var sum float64
	for _, p := range h.groups[g] {
		sum += capToward(h.full, v, p, requester)
	}
	return sum
}

// refineGroup solves the fine-grid LP over one group: take `amount` from
// its members, minimizing the worst member-capacity perturbation, honoring
// each member's agreement cap toward the requester. It adds to take and
// subtracts from newV in place.
func (h *Hierarchy) refineGroup(v, take, newV []float64, g, requester int, amount float64) error {
	members := h.groups[g]
	if have := h.groupHeadroom(v, g, requester); have < amount-1e-9 {
		return fmt.Errorf("%w: group %d can supply %g of requested %g", core.ErrInsufficient, g, have, amount)
	}
	caps := make([]float64, len(members))
	for idx, p := range members {
		caps[idx] = capToward(h.full, v, p, requester)
	}
	solved, err := gridLP(h.full, members, caps, requester, amount)
	if err != nil {
		return fmt.Errorf("planners: hierarchy fine grid (group %d): %w", g, err)
	}
	for idx, p := range members {
		amt := min(max(solved[idx], 0), newV[p])
		take[p] += amt
		newV[p] -= amt
	}
	return nil
}

// gridLP is the LP both grids solve, over the given nodes of al (groups of
// the coarse allocator, members of the full one): take_x ∈ [0, caps[x]]
// from nodes[x], Σ take = amount, minimizing θ subject to each node i's
// capacity drop ΔC_i = take_i + Σ_{k≠i} K[k][i]·take_k ≤ θ — for every node
// but skip, whose own drop is the request. It returns the takes as solved.
func gridLP(al *core.Allocator, nodes []int, caps []float64, skip int, amount float64) ([]float64, error) {
	m := lp.NewModel(lp.Minimize)
	take := make([]lp.VarID, len(nodes))
	for x, p := range nodes {
		take[x] = m.AddVar(fmt.Sprintf("take_%d", p), 0, caps[x], 0)
	}
	theta := m.AddVar("theta", 0, lp.Inf, 1)
	terms := make([]lp.Term, len(nodes))
	for x := range nodes {
		terms[x] = lp.Term{Var: take[x], Coeff: 1}
	}
	m.AddConstraint("consume", terms, lp.EQ, amount)
	for _, i := range nodes {
		if i == skip {
			continue
		}
		row := []lp.Term{{Var: theta, Coeff: -1}}
		for x, k := range nodes {
			coeff := 1.0
			if k != i {
				coeff = kAt(al, k, i)
			}
			if !num.IsZero(coeff) {
				row = append(row, lp.Term{Var: take[x], Coeff: coeff})
			}
		}
		m.AddConstraint(fmt.Sprintf("perturb_%d", i), row, lp.LE, 0)
	}
	sol, err := m.Solve()
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(nodes))
	for x := range out {
		out[x] = sol.Value(take[x])
	}
	return out, nil
}
