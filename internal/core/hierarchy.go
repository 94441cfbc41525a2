package core

import (
	"fmt"

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
	full   *Allocator
	groups [][]int
	of     []int // principal -> group index
	coarse *Allocator
	cfg    Config
}

// NewHierarchy builds a hierarchical planner over the full agreement
// matrices with the given disjoint groups covering all principals.
func NewHierarchy(s, a [][]float64, groups [][]int, cfg Config) (*Hierarchy, error) {
	full, err := NewAllocator(s, a, cfg)
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
			return nil, fmt.Errorf("core: NewHierarchy: group %d is empty", g)
		}
		for _, p := range members {
			if p < 0 || p >= n {
				return nil, fmt.Errorf("core: NewHierarchy: group %d member %d out of range", g, p)
			}
			if of[p] != -1 {
				return nil, fmt.Errorf("core: NewHierarchy: principal %d in two groups", p)
			}
			of[p] = g
		}
	}
	for p, g := range of {
		if g == -1 {
			return nil, fmt.Errorf("core: NewHierarchy: principal %d not in any group", p)
		}
	}

	// Coarse matrices: average member-to-member share between groups.
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
		for j := 0; j < n; j++ {
			gi, gj := of[i], of[j]
			if gi == gj {
				continue
			}
			sg[gi][gj] += s[i][j] / float64(len(groups[gi]))
			if ag != nil {
				ag[gi][gj] += a[i][j]
			}
		}
	}
	for g := range sg {
		if sum := rowSum(sg[g]); sum > 1 {
			// Keep the coarse model conservative; the fine grid enforces
			// the real per-member caps anyway.
			for j := range sg[g] {
				sg[g][j] /= sum
			}
		}
	}
	coarse, err := NewAllocator(sg, ag, Config{Level: cfg.Level, Approx: cfg.Approx})
	if err != nil {
		return nil, fmt.Errorf("core: NewHierarchy: coarse allocator: %w", err)
	}
	return &Hierarchy{full: full, groups: groups, of: of, coarse: coarse, cfg: cfg}, nil
}

// Capacities reports the exact (full-matrix) capacities.
func (h *Hierarchy) Capacities(v []float64) []float64 { return h.full.Capacities(v) }

// Plan allocates using multi-grid refinement. If the requester's own group
// can satisfy the request it never leaves the group; otherwise the coarse
// LP splits the request across groups and a fine LP inside each
// contributing group picks the actual sources.
func (h *Hierarchy) Plan(v []float64, requester int, amount float64) (*Allocation, error) {
	h.full.checkV(v)
	if amount < 0 {
		return nil, fmt.Errorf("core: negative request %g", amount)
	}
	n := h.full.N()
	out := &Allocation{Take: make([]float64, n), NewV: append([]float64(nil), v...)}
	if num.IsZero(amount) {
		return out, nil
	}
	g := h.of[requester]

	// Fine-only fast path: can the home group cover the request?
	if h.groupHeadroom(v, g, requester) >= amount-1e-9 {
		if err := h.refineGroup(v, out, g, requester, amount); err != nil {
			return nil, err
		}
		out.Theta = h.full.perturbation(v, out.NewV, requester)
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
		return nil, fmt.Errorf("%w: groups can supply %g of requested %g", ErrInsufficient, reachable, amount)
	}
	groupTake, err := h.coarsePlan(vg, g, amount)
	if err != nil {
		return nil, fmt.Errorf("core: hierarchy coarse grid: %w", err)
	}

	// Fine grid: refine inside each contributing group.
	for gi := range h.groups {
		want := groupTake[gi]
		if want <= 1e-12 {
			continue
		}
		if err := h.refineGroup(v, out, gi, requester, want); err != nil {
			return nil, err
		}
	}
	out.Theta = h.full.perturbation(v, out.NewV, requester)
	return out, nil
}

// perturbation recomputes θ = max_{i≠requester} (C_i − C'_i) from first
// principles for an allocation in dense form.
func (al *Allocator) perturbation(v, newV []float64, requester int) float64 {
	worst := 0.0
	for i := range v {
		if i == requester {
			continue
		}
		if d := al.capacity(v, i) - al.capacity(newV, i); d > worst {
			worst = d
		}
	}
	return worst
}

// coarsePlan distributes `amount` across groups: take_g ∈ [0, vg_g],
// Σ take = amount, minimizing the worst group-level capacity perturbation
// measured with the averaged inter-group coefficients. Take bounds use the
// exportable headroom directly (vg is already capped per member), so the
// averaged coefficients steer the objective without re-capping supply.
func (h *Hierarchy) coarsePlan(vg []float64, home int, amount float64) ([]float64, error) {
	ng := len(h.groups)
	m := lp.NewModel(lp.Minimize)
	take := make([]lp.VarID, ng)
	for gi := 0; gi < ng; gi++ {
		take[gi] = m.AddVar(fmt.Sprintf("take_g%d", gi), 0, vg[gi], 0)
	}
	theta := m.AddVar("theta", 0, lp.Inf, 1)
	terms := make([]lp.Term, ng)
	for gi := 0; gi < ng; gi++ {
		terms[gi] = lp.Term{Var: take[gi], Coeff: 1}
	}
	m.AddConstraint("consume", terms, lp.EQ, amount)
	for gi := 0; gi < ng; gi++ {
		if gi == home {
			continue
		}
		row := []lp.Term{{Var: theta, Coeff: -1}}
		for gk := 0; gk < ng; gk++ {
			coeff := h.coarse.kAt(gk, gi)
			if gk == gi {
				coeff = 1
			}
			if !num.IsZero(coeff) {
				row = append(row, lp.Term{Var: take[gk], Coeff: coeff})
			}
		}
		m.AddConstraint(fmt.Sprintf("perturb_g%d", gi), row, lp.LE, 0)
	}
	sol, err := m.Solve()
	if err != nil {
		return nil, err
	}
	out := make([]float64, ng)
	for gi := range out {
		x := sol.Value(take[gi])
		if x < 0 {
			x = 0
		}
		if x > vg[gi] {
			x = vg[gi]
		}
		out[gi] = x
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
		if p == requester {
			sum += v[p]
		} else {
			sum += h.full.sourceCap(v, p, requester)
		}
	}
	return sum
}

// refineGroup solves the fine-grid LP over one group: take `amount` from
// its members, minimizing the worst member-capacity perturbation, honoring
// each member's agreement cap toward the requester. It updates out in
// place.
func (h *Hierarchy) refineGroup(v []float64, out *Allocation, g, requester int, amount float64) error {
	members := h.groups[g]
	if have := h.groupHeadroom(v, g, requester); have < amount-1e-9 {
		return fmt.Errorf("%w: group %d can supply %g of requested %g", ErrInsufficient, g, have, amount)
	}
	m := lp.NewModel(lp.Minimize)
	take := make([]lp.VarID, len(members))
	for idx, p := range members {
		cap := h.full.sourceCap(v, p, requester)
		if p == requester {
			cap = v[p]
		}
		take[idx] = m.AddVar(fmt.Sprintf("take_%d", p), 0, cap, 0)
	}
	theta := m.AddVar("theta", 0, lp.Inf, 1)
	terms := make([]lp.Term, len(members))
	for idx := range members {
		terms[idx] = lp.Term{Var: take[idx], Coeff: 1}
	}
	m.AddConstraint("consume", terms, lp.EQ, amount)
	// Perturbation of member i's capacity from takes inside this group:
	// ΔC_i = take_i + Σ_{k∈g, k≠i} K[k][i]·take_k  <=  θ.
	for _, i := range members {
		if i == requester {
			continue
		}
		row := []lp.Term{{Var: theta, Coeff: -1}}
		for idx, k := range members {
			coeff := h.full.kAt(k, i)
			if k == i {
				coeff = 1
			}
			if !num.IsZero(coeff) {
				row = append(row, lp.Term{Var: take[idx], Coeff: coeff})
			}
		}
		m.AddConstraint(fmt.Sprintf("perturb_%d", i), row, lp.LE, 0)
	}
	sol, err := m.Solve()
	if err != nil {
		return fmt.Errorf("core: hierarchy fine grid (group %d): %w", g, err)
	}
	for idx, p := range members {
		amt := sol.Value(take[idx])
		if amt < 0 {
			amt = 0
		}
		if amt > out.NewV[p] {
			amt = out.NewV[p]
		}
		out.Take[p] += amt
		out.NewV[p] -= amt
	}
	return nil
}

func rowSum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

var _ Planner = (*Hierarchy)(nil)
