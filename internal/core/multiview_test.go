package core_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/planners"
)

// diskViews: principal 1 shares reads generously but writes stingily.
func diskViews() map[string]*agreement.SparseMatrix {
	return map[string]*agreement.SparseMatrix{
		"read":  core.Sparse([][]float64{{0, 0}, {0.8, 0}}),
		"write": core.Sparse([][]float64{{0, 0}, {0.2, 0}}),
	}
}

func TestMultiViewPlanRespectsPerViewAgreements(t *testing.T) {
	mv, err := planners.NewMultiView(diskViews(), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	v := []float64{0, 10}
	plans, err := mv.Plan(v, 0, map[string]float64{"read": 5, "write": 2})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, sum(dense(plans["read"], 2)), 5, 1e-6, "read total")
	almost(t, sum(dense(plans["write"], 2)), 2, 1e-6, "write total")
	if dense(plans["write"], 2)[1] > 2+1e-9 {
		t.Errorf("write take %g exceeds 20%% agreement cap 2", dense(plans["write"], 2)[1])
	}
}

func TestMultiViewSharedPhysicalPool(t *testing.T) {
	// Reads and writes both come out of the same 10 units: asking for 6
	// reads and 6 writes must fail even though each view alone allows it.
	views := map[string]*agreement.SparseMatrix{
		"read":  core.Sparse([][]float64{{0, 0}, {1, 0}}),
		"write": core.Sparse([][]float64{{0, 0}, {1, 0}}),
	}
	mv, err := planners.NewMultiView(views, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	v := []float64{0, 10}
	if _, err := mv.Plan(v, 0, map[string]float64{"read": 6, "write": 6}); err == nil {
		t.Fatal("12 units from a 10-unit physical pool accepted")
	}
	// 6 + 4 fits exactly.
	plans, err := mv.Plan(v, 0, map[string]float64{"read": 6, "write": 4})
	if err != nil {
		t.Fatal(err)
	}
	physical := dense(plans["read"], 2)[1] + dense(plans["write"], 2)[1]
	if physical > 10+1e-6 {
		t.Errorf("physical draw %g exceeds pool", physical)
	}
	almost(t, v[1]-physical, 0, 1e-6, "pool drained")
}

func TestMultiViewInsufficientPerView(t *testing.T) {
	mv, err := planners.NewMultiView(diskViews(), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Write entitlement is only 20% of 10 = 2.
	_, err = mv.Plan([]float64{0, 10}, 0, map[string]float64{"write": 3})
	if !errors.Is(err, core.ErrInsufficient) {
		t.Errorf("want core.ErrInsufficient, got %v", err)
	}
}

func TestMultiViewValidation(t *testing.T) {
	if _, err := planners.NewMultiView(nil, core.Config{}); err == nil {
		t.Error("empty views accepted")
	}
	if _, err := planners.NewMultiView(map[string]*agreement.SparseMatrix{
		"a": core.Sparse([][]float64{{0, 0}, {0.5, 0}}),
		"b": core.Sparse([][]float64{{0}}),
	}, core.Config{}); err == nil {
		t.Error("mismatched view sizes accepted")
	}
	mv, err := planners.NewMultiView(diskViews(), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mv.Plan([]float64{1, 1}, 0, map[string]float64{"nope": 1}); err == nil {
		t.Error("unknown view accepted")
	}
	if _, err := mv.Plan([]float64{1, 1}, 0, map[string]float64{"read": -1}); err == nil {
		t.Error("negative request accepted")
	}
}

func TestMultiViewCapacities(t *testing.T) {
	mv, err := planners.NewMultiView(diskViews(), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	caps := mv.Capacities([]float64{0, 10})
	almost(t, caps["read"][0], 8, 1e-9, "read entitlement")
	almost(t, caps["write"][0], 2, 1e-9, "write entitlement")
}

func TestMultiViewSingleViewMatchesAllocator(t *testing.T) {
	// With one view, MultiView must agree with the plain Allocator.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, v, requester, amount := randomScenario(rng)
		al, err := core.NewAllocator(core.Sparse(s), nil, core.Config{})
		if err != nil {
			return false
		}
		mv, err := planners.NewMultiView(map[string]*agreement.SparseMatrix{"only": core.Sparse(s)}, core.Config{})
		if err != nil {
			return false
		}
		_, takes, _, e1 := al.PlanPairs(nil, nil, v, requester, amount)
		p2, e2 := mv.Plan(v, requester, map[string]float64{"only": amount})
		if (e1 == nil) != (e2 == nil) {
			// The multi-view LP also enforces the physical constraint on
			// the requester itself, which the single allocator treats as
			// a bound; both should agree on feasibility.
			return false
		}
		if e1 != nil {
			return true
		}
		// Both must place the full amount; the θ optima can differ only
		// within tolerance since the formulations are equivalent here.
		return math.Abs(sum(takes)-amount) < 1e-6 &&
			math.Abs(sum(p2["only"].Takes)-amount) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
