package core

import (
	"fmt"
	"sort"

	"repro/internal/lp"
	"repro/internal/transitive"

	"repro/internal/num"
)

// MultiView implements the paper's named future-work extension: "this
// mechanism can be extended to handle multiple views of the same
// resources... for example, the disk bandwidth resource can be viewed as
// two kinds of resources: read bandwidth and write bandwidth" (end of
// Section 2.2).
//
// Each view has its own agreement matrix over the same principals, but
// all views draw from one shared physical capacity: taking read bandwidth
// from a disk leaves less for writes. A request spanning several views is
// planned by a single LP that couples the views through the physical
// capacity constraint Σ_views take_i ≤ V_i and minimizes the worst
// capacity perturbation across every (principal, view) pair.
type MultiView struct {
	n     int
	views []string
	// k[view] are the capped transitive coefficients for that view.
	k map[string][][]float64
}

// NewMultiView builds a multi-view planner. Every view's matrix must
// cover the same n principals.
func NewMultiView(views map[string][][]float64, cfg Config) (*MultiView, error) {
	if len(views) == 0 {
		return nil, fmt.Errorf("core: NewMultiView: no views")
	}
	mv := &MultiView{k: map[string][][]float64{}}
	for name := range views {
		mv.views = append(mv.views, name)
	}
	sort.Strings(mv.views)
	mv.n = len(views[mv.views[0]])
	for _, name := range mv.views {
		s := views[name]
		if len(s) != mv.n {
			return nil, fmt.Errorf("core: NewMultiView: view %q has %d principals, want %d", name, len(s), mv.n)
		}
		if err := transitive.Validate(s); err != nil {
			return nil, fmt.Errorf("core: NewMultiView: view %q: %w", name, err)
		}
		level := cfg.Level
		if level <= 0 {
			level = mv.n - 1
		}
		sCols, sVals := make([][]int32, mv.n), make([][]float64, mv.n)
		for i, row := range s {
			sCols[i], sVals[i] = transitive.RowOf(row)
		}
		clo, err := transitive.NewClosureBudget(mv.n, sCols, sVals, level, cfg.Approx, exactBudget)
		if err != nil {
			return nil, fmt.Errorf("core: NewMultiView: view %q needs Config.Approx (graph too dense for exact closure): %w", name, err)
		}
		t := clo.T()
		mv.k[name] = transitive.Cap(t)
	}
	return mv, nil
}

// Views returns the view names, sorted.
func (mv *MultiView) Views() []string { return append([]string(nil), mv.views...) }

// Capacities returns C_i per view at the shared physical availability v.
// Note the sum across views can exceed the physical total — capacity is
// an entitlement per view; the Plan constraint keeps actual consumption
// physical.
func (mv *MultiView) Capacities(v []float64) map[string][]float64 {
	out := make(map[string][]float64, len(mv.views))
	for _, name := range mv.views {
		out[name] = transitive.Capacities(v, mv.k[name], nil)
	}
	return out
}

// Plan allocates request[view] units of each view for the requester from
// the shared physical capacities v. A single LP couples all views:
//
//	Σ_i take[v][i]           = request[v]      per view
//	take[v][i]              <= U^v_i(requester) per view and source
//	Σ_v take[v][i]          <= v[i]             physical capacity
//	Σ_k K^v[k][j]·Σ_w take[w][k] <= θ           perturbation, each (j, v)
//
// minimizing θ. Returns one Allocation per view; the per-view takes sum
// to the request and jointly respect the physical pools.
func (mv *MultiView) Plan(v []float64, requester int, request map[string]float64) (map[string]*Allocation, error) {
	if len(v) != mv.n {
		panic(fmt.Sprintf("core: MultiView.Plan: %d capacities for %d principals", len(v), mv.n))
	}
	if requester < 0 || requester >= mv.n {
		panic(fmt.Sprintf("core: MultiView.Plan: requester %d out of range", requester))
	}
	asked := make([]string, 0, len(request))
	var totalAsk float64
	for name, amt := range request {
		if _, ok := mv.k[name]; !ok {
			return nil, fmt.Errorf("core: MultiView.Plan: unknown view %q", name)
		}
		if amt < 0 {
			return nil, fmt.Errorf("core: MultiView.Plan: negative request %g for view %q", amt, name)
		}
		asked = append(asked, name)
		totalAsk += amt
	}
	sort.Strings(asked)

	// Feasibility pre-checks with precise errors: per-view entitlement
	// and the joint physical pool.
	for _, name := range asked {
		caps := transitive.Capacities(v, mv.k[name], nil)
		if caps[requester] < request[name]-1e-9 {
			return nil, fmt.Errorf("%w: view %q capacity %g, requested %g",
				ErrInsufficient, name, caps[requester], request[name])
		}
	}

	m := lp.NewModel(lp.Minimize)
	take := map[string][]lp.VarID{}
	for _, name := range asked {
		vars := make([]lp.VarID, mv.n)
		for i := 0; i < mv.n; i++ {
			hi := v[i]
			if i != requester {
				u := v[i] * mv.k[name][i][requester]
				if u < hi {
					hi = u
				}
			}
			vars[i] = m.AddVar(fmt.Sprintf("take_%s_%d", name, i), 0, hi, 0)
		}
		take[name] = vars
	}
	theta := m.AddVar("theta", 0, lp.Inf, 1)

	for _, name := range asked {
		terms := make([]lp.Term, mv.n)
		for i := 0; i < mv.n; i++ {
			terms[i] = lp.Term{Var: take[name][i], Coeff: 1}
		}
		m.AddConstraint("consume_"+name, terms, lp.EQ, request[name])
	}
	// Shared physical pools.
	for i := 0; i < mv.n; i++ {
		terms := make([]lp.Term, 0, len(asked))
		for _, name := range asked {
			terms = append(terms, lp.Term{Var: take[name][i], Coeff: 1})
		}
		m.AddConstraint(fmt.Sprintf("physical_%d", i), terms, lp.LE, v[i])
	}
	// Perturbation across every (principal, view): the capacity drop of
	// principal j in view w is Σ_k K^w[k][j] · (total physical take at k),
	// with the self coefficient 1.
	for _, w := range mv.views {
		for j := 0; j < mv.n; j++ {
			if j == requester {
				continue
			}
			terms := []lp.Term{{Var: theta, Coeff: -1}}
			for k := 0; k < mv.n; k++ {
				coeff := mv.k[w][k][j]
				if k == j {
					coeff = 1
				}
				if num.IsZero(coeff) {
					continue
				}
				for _, name := range asked {
					terms = append(terms, lp.Term{Var: take[name][k], Coeff: coeff})
				}
			}
			m.AddConstraint(fmt.Sprintf("perturb_%s_%d", w, j), terms, lp.LE, 0)
		}
	}

	sol, err := m.Solve()
	if err != nil {
		return nil, fmt.Errorf("core: multi-view LP failed: %w", err)
	}
	out := make(map[string]*Allocation, len(asked))
	for _, name := range asked {
		alloc := &Allocation{Take: make([]float64, mv.n), NewV: make([]float64, mv.n), Theta: sol.Objective}
		for i := 0; i < mv.n; i++ {
			x := sol.Value(take[name][i])
			if x < 1e-12 {
				x = 0
			}
			alloc.Take[i] = x
		}
		out[name] = alloc
	}
	// NewV reflects the joint physical draw.
	for i := 0; i < mv.n; i++ {
		var drawn float64
		for _, name := range asked {
			drawn += out[name].Take[i]
		}
		left := v[i] - drawn
		if left < 0 {
			left = 0
		}
		for _, name := range asked {
			out[name].NewV[i] = left
		}
	}
	return out, nil
}
