package planners

import (
	"fmt"
	"sort"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/lp"
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
	// al[view] holds that view's agreements and flow coefficients.
	al map[string]*core.Allocator
}

// NewMultiView builds a multi-view planner. Every view's matrix must
// cover the same n principals.
func NewMultiView(views map[string]*agreement.SparseMatrix, cfg core.Config) (*MultiView, error) {
	if len(views) == 0 {
		return nil, fmt.Errorf("planners: NewMultiView: no views")
	}
	mv := &MultiView{al: map[string]*core.Allocator{}}
	for name := range views {
		mv.views = append(mv.views, name)
	}
	sort.Strings(mv.views)
	mv.n = views[mv.views[0]].N()
	for _, name := range mv.views {
		s := views[name]
		if s.N() != mv.n {
			return nil, fmt.Errorf("planners: NewMultiView: view %q has %d principals, want %d", name, s.N(), mv.n)
		}
		al, err := core.NewAllocator(s, nil, cfg)
		if err != nil {
			return nil, fmt.Errorf("planners: NewMultiView: view %q: %w", name, err)
		}
		mv.al[name] = al
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
		out[name] = mv.al[name].Capacities(v)
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
// minimizing θ. Returns one plan per view (takes below 1e-12 dropped); the
// per-view takes sum to the request and jointly respect the physical pools.
func (mv *MultiView) Plan(v []float64, requester int, request map[string]float64) (map[string]*Pairs, error) {
	if len(v) != mv.n {
		panic(fmt.Sprintf("planners: MultiView.Plan: %d capacities for %d principals", len(v), mv.n))
	}
	if requester < 0 || requester >= mv.n {
		panic(fmt.Sprintf("planners: MultiView.Plan: requester %d out of range", requester))
	}
	asked := make([]string, 0, len(request))
	for name, amt := range request {
		if _, ok := mv.al[name]; !ok {
			return nil, fmt.Errorf("planners: MultiView.Plan: unknown view %q", name)
		}
		if amt < 0 {
			return nil, fmt.Errorf("planners: MultiView.Plan: negative request %g for view %q", amt, name)
		}
		asked = append(asked, name)
	}
	sort.Strings(asked)

	// Feasibility pre-check with a precise error: per-view entitlement.
	// The joint physical pool is left to the LP.
	for _, name := range asked {
		if c := mv.al[name].Capacity(v, requester); c < request[name]-1e-9 {
			return nil, fmt.Errorf("%w: view %q capacity %g, requested %g",
				core.ErrInsufficient, name, c, request[name])
		}
	}

	m := lp.NewModel(lp.Minimize)
	take := map[string][]lp.VarID{}
	for _, name := range asked {
		vars := make([]lp.VarID, mv.n)
		for i := 0; i < mv.n; i++ {
			vars[i] = m.AddVar(fmt.Sprintf("take_%s_%d", name, i), 0, capToward(mv.al[name], v, i, requester), 0)
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
				coeff := 1.0
				if k != j {
					coeff = kAt(mv.al[w], k, j)
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
		return nil, fmt.Errorf("planners: multi-view LP failed: %w", err)
	}
	out := make(map[string]*Pairs, len(asked))
	for _, name := range asked {
		p := &Pairs{Theta: sol.Objective}
		for i := 0; i < mv.n; i++ {
			if x := sol.Value(take[name][i]); x >= 1e-12 {
				p.Sources, p.Takes = append(p.Sources, i), append(p.Takes, x)
			}
		}
		out[name] = p
	}
	return out, nil
}
