package core_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/modeltest"
	"repro/internal/planners"
	"repro/internal/store"
)

// dense scatters a pair-form plan over n principals.
func dense(p *planners.Pairs, n int) []float64 { return store.DenseTakes(p.Sources, p.Takes, n) }

// This file, multiview_test.go and ledger_test.go drive core through the
// library in package planners. They are external tests so that they can
// import it: planners imports core.
var (
	almost         = core.Almost
	randomScenario = core.RandomScenario
)

func TestMultiPlan(t *testing.T) {
	// Two types with different agreement structures.
	sCPU := [][]float64{{0, 0}, {0.5, 0}}
	sDisk := [][]float64{{0, 0}, {0.8, 0}}
	mu := planners.NewMulti(2)
	if err := mu.AddType("cpu", core.Sparse(sCPU), nil, core.Config{}); err != nil {
		t.Fatal(err)
	}
	if err := mu.AddType("disk", core.Sparse(sDisk), nil, core.Config{}); err != nil {
		t.Fatal(err)
	}
	v := map[string][]float64{
		"cpu":  {2, 10},
		"disk": {1, 10},
	}
	plans, err := mu.Plan(v, 0, map[string]float64{"cpu": 5, "disk": 7})
	if err != nil {
		t.Fatal(err)
	}
	var cpuSum, diskSum float64
	for _, x := range dense(plans["cpu"], 2) {
		cpuSum += x
	}
	for _, x := range dense(plans["disk"], 2) {
		diskSum += x
	}
	almost(t, cpuSum, 5, 1e-6, "cpu total")
	almost(t, diskSum, 7, 1e-6, "disk total")
}

func TestMultiPlanAtomicFailure(t *testing.T) {
	s := [][]float64{{0, 0}, {0.5, 0}}
	mu := planners.NewMulti(2)
	if err := mu.AddType("cpu", core.Sparse(s), nil, core.Config{}); err != nil {
		t.Fatal(err)
	}
	if err := mu.AddType("disk", core.Sparse(s), nil, core.Config{}); err != nil {
		t.Fatal(err)
	}
	v := map[string][]float64{
		"cpu":  {10, 10},
		"disk": {0, 1}, // disk capacity for 0 is 0 + 0.5 = 0.5 < 3
	}
	_, err := mu.Plan(v, 0, map[string]float64{"cpu": 1, "disk": 3})
	if !errors.Is(err, core.ErrInsufficient) {
		t.Errorf("want core.ErrInsufficient, got %v", err)
	}
}

func TestMultiErrors(t *testing.T) {
	mu := planners.NewMulti(2)
	s := [][]float64{{0, 0}, {0.5, 0}}
	if err := mu.AddType("cpu", core.Sparse(s), nil, core.Config{}); err != nil {
		t.Fatal(err)
	}
	if err := mu.AddType("cpu", core.Sparse(s), nil, core.Config{}); err == nil {
		t.Error("duplicate type accepted")
	}
	if err := mu.AddType("bad", core.Sparse([][]float64{{0}}), nil, core.Config{}); err == nil {
		t.Error("wrong-size matrix accepted")
	}
	if _, err := mu.Plan(map[string][]float64{}, 0, map[string]float64{"gpu": 1}); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := mu.Plan(map[string][]float64{}, 0, map[string]float64{"cpu": 1}); err == nil {
		t.Error("missing availability accepted")
	}
	if _, err := mu.Capacities(map[string][]float64{}); err == nil {
		t.Error("missing availability accepted in Capacities")
	}
	if got := mu.Types(); len(got) != 2 || got[0] != "bad" && got[0] != "cpu" {
		// "bad" failed to register, so only cpu remains.
		if len(got) != 1 || got[0] != "cpu" {
			t.Errorf("Types = %v", got)
		}
	}
}

func TestCoupledPlan(t *testing.T) {
	// A bundle consumes 2 cpu + 1 mem. Principal 1 shares 100% with 0.
	s := [][]float64{{0, 0}, {1, 0}}
	c, err := planners.NewCoupled(core.Sparse(s), nil, core.Config{}, map[string]float64{"cpu": 2, "mem": 1})
	if err != nil {
		t.Fatal(err)
	}
	v := map[string][]float64{
		"cpu": {4, 20},
		"mem": {10, 5},
	}
	// Bundle availability: p0 = min(4/2, 10/1) = 2; p1 = min(10, 5) = 5.
	b, err := c.BundleAvailability(v)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, b[0], 2, 1e-12, "bundles at 0")
	almost(t, b[1], 5, 1e-12, "bundles at 1")

	plans, err := c.Plan(v, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Components must be proportional per principal: cpu take = 2×mem take.
	for i := 0; i < 2; i++ {
		almost(t, dense(plans["cpu"], 2)[i], 2*dense(plans["mem"], 2)[i], 1e-9, "coupled ratio")
	}
	var bundles float64
	for i := 0; i < 2; i++ {
		bundles += dense(plans["mem"], 2)[i]
	}
	almost(t, bundles, 6, 1e-6, "bundle total")
	// Principal 0 can contribute at most 2 bundles.
	if dense(plans["mem"], 2)[0] > 2+1e-9 {
		t.Errorf("principal 0 contributed %g bundles, cap 2", dense(plans["mem"], 2)[0])
	}
}

func TestCoupledInsufficient(t *testing.T) {
	s := [][]float64{{0, 0}, {1, 0}}
	c, err := planners.NewCoupled(core.Sparse(s), nil, core.Config{}, map[string]float64{"cpu": 1})
	if err != nil {
		t.Fatal(err)
	}
	v := map[string][]float64{"cpu": {1, 1}}
	if _, err := c.Plan(v, 0, 5); !errors.Is(err, core.ErrInsufficient) {
		t.Errorf("want core.ErrInsufficient, got %v", err)
	}
}

func TestCoupledValidation(t *testing.T) {
	s := [][]float64{{0, 0}, {1, 0}}
	if _, err := planners.NewCoupled(core.Sparse(s), nil, core.Config{}, nil); err == nil {
		t.Error("empty rates accepted")
	}
	if _, err := planners.NewCoupled(core.Sparse(s), nil, core.Config{}, map[string]float64{"cpu": -1}); err == nil {
		t.Error("negative rate accepted")
	}
	c, err := planners.NewCoupled(core.Sparse(s), nil, core.Config{}, map[string]float64{"cpu": 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.BundleAvailability(map[string][]float64{}); err == nil {
		t.Error("missing component accepted")
	}
	if _, err := c.BundleAvailability(map[string][]float64{"cpu": {1}}); err == nil {
		t.Error("short vector accepted")
	}
}

func TestHierarchyFastPathStaysLocal(t *testing.T) {
	// Two groups of two; requester's own group has plenty.
	s := complete(4, 0.5)
	h, err := planners.NewHierarchy(core.Sparse(s), nil, [][]int{{0, 1}, {2, 3}}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	v := []float64{10, 10, 10, 10}
	plan, err := modeltest.PlanDense(h, v, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, plan.Take[2]+plan.Take[3], 0, 1e-9, "no cross-group takes")
	almost(t, plan.Take[0]+plan.Take[1], 8, 1e-6, "local takes")
}

func TestHierarchyCrossGroup(t *testing.T) {
	s := complete(4, 0.5)
	h, err := planners.NewHierarchy(core.Sparse(s), nil, [][]int{{0, 1}, {2, 3}}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Home group nearly empty; must pull from group 1.
	v := []float64{1, 2, 10, 10}
	plan, err := modeltest.PlanDense(h, v, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, x := range plan.Take {
		total += x
	}
	almost(t, total, 8, 1e-6, "total take")
	if plan.Take[2]+plan.Take[3] < 4 {
		t.Errorf("expected most take from group 1, got %v", plan.Take)
	}
	// Caps: at full transitivity the complete 0.5-graph reaches K=1, so
	// member 1 can contribute its whole availability of 2 but no more.
	if plan.Take[1] > 2+1e-6 {
		t.Errorf("take[1] = %g exceeds agreement cap 2", plan.Take[1])
	}
}

func TestHierarchyMatchesFlatFeasibility(t *testing.T) {
	s := complete(6, 0.3)
	h, err := planners.NewHierarchy(core.Sparse(s), nil, [][]int{{0, 1, 2}, {3, 4, 5}}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := core.NewAllocator(core.Sparse(s), nil, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	v := []float64{2, 2, 2, 8, 8, 8}
	hp, err := modeltest.PlanDense(h, v, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := modeltest.PlanDense(flat, v, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Both must respect per-source caps and sum to 9; hierarchy's θ may be
	// modestly worse (it is an approximation).
	var hSum, fSum float64
	k := flat.FlowCoefficients()
	for i := range v {
		hSum += hp.Take[i]
		fSum += fp.Take[i]
		if cap := min(v[i]*k[i][0], v[i]); hp.Take[i] > cap+1e-6 && i != 0 {
			t.Errorf("hierarchy take[%d] = %g exceeds cap %g", i, hp.Take[i], cap)
		}
	}
	almost(t, hSum, 9, 1e-6, "hierarchy total")
	almost(t, fSum, 9, 1e-6, "flat total")
	if hp.Theta < fp.Theta-1e-6 {
		t.Errorf("hierarchy theta %g beats flat optimum %g: flat LP is not optimal?", hp.Theta, fp.Theta)
	}
}

func TestHierarchyInsufficient(t *testing.T) {
	s := complete(4, 0.1)
	h, err := planners.NewHierarchy(core.Sparse(s), nil, [][]int{{0, 1}, {2, 3}}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := modeltest.PlanDense(h, []float64{1, 1, 1, 1}, 0, 50); !errors.Is(err, core.ErrInsufficient) {
		t.Errorf("want core.ErrInsufficient, got %v", err)
	}
}

func TestHierarchyValidation(t *testing.T) {
	s := complete(4, 0.1)
	cases := [][][]int{
		{{0, 1}},             // principal uncovered
		{{0, 1}, {1, 2, 3}},  // overlap
		{{0, 1}, {}, {2, 3}}, // empty group
		{{0, 1}, {2, 9}},     // out of range
	}
	for i, groups := range cases {
		if _, err := planners.NewHierarchy(core.Sparse(s), nil, groups, core.Config{}); err == nil {
			t.Errorf("case %d: invalid grouping accepted", i)
		}
	}
}

func TestProportionalIgnoresAvailability(t *testing.T) {
	// Principals 1 and 2 share equally with 0; 1 is drained. The
	// proportional scheme still sends half the request to 1 — that is its
	// defining flaw, so assert it.
	s := [][]float64{
		{0, 0, 0},
		{0.5, 0, 0},
		{0.5, 0, 0},
	}
	p, err := planners.NewProportional(core.Sparse(s), nil)
	if err != nil {
		t.Fatal(err)
	}
	v := []float64{0, 0.5, 100}
	plan, err := modeltest.PlanDense(p, v, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Half of the request goes to the drained source regardless of its
	// availability — the endpoint scheme is availability-blind, which is
	// exactly the flaw Figure 13 demonstrates.
	almost(t, plan.Take[1], 5, 1e-9, "take aimed at drained source")
	almost(t, plan.Take[2], 5, 1e-9, "take from healthy source")
	almost(t, plan.Take[0], 0, 1e-9, "nothing stays home")
}

func TestProportionalOwnFirst(t *testing.T) {
	s := [][]float64{{0, 0}, {0.5, 0}}
	p, err := planners.NewProportional(core.Sparse(s), nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := modeltest.PlanDense(p, []float64{10, 10}, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, plan.Take[0], 6, 1e-9, "own resources cover it")
	almost(t, plan.Take[1], 0, 1e-9, "nothing redirected")
}

func TestGreedyTakesFromLargestHeadroom(t *testing.T) {
	s := [][]float64{
		{0, 0, 0},
		{1, 0, 0},
		{1, 0, 0},
	}
	g, err := planners.NewGreedy(core.Sparse(s), nil, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	v := []float64{0, 3, 9}
	plan, err := modeltest.PlanDense(g, v, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, plan.Take[2], 5, 1e-9, "greedy drains the largest source")
	almost(t, plan.Take[1], 0, 1e-9, "smaller source untouched")
}

func TestGreedyInsufficient(t *testing.T) {
	s := [][]float64{{0, 0}, {0.5, 0}}
	g, err := planners.NewGreedy(core.Sparse(s), nil, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := modeltest.PlanDense(g, []float64{1, 2}, 0, 10); !errors.Is(err, core.ErrInsufficient) {
		t.Errorf("want core.ErrInsufficient, got %v", err)
	}
}

func TestGreedyRespectsCaps(t *testing.T) {
	s := [][]float64{{0, 0}, {0.4, 0}}
	g, err := planners.NewGreedy(core.Sparse(s), nil, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := modeltest.PlanDense(g, []float64{2, 10}, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Take[1] > 4+1e-9 {
		t.Errorf("greedy took %g from source 1, cap is 4", plan.Take[1])
	}
	almost(t, plan.Take[0]+plan.Take[1], 6, 1e-9, "total")
}

func complete(n int, share float64) [][]float64 {
	s := make([][]float64, n)
	for i := range s {
		s[i] = make([]float64, n)
		for j := range s[i] {
			if i != j {
				s[i][j] = share
			}
		}
	}
	return s
}

func TestProportionalAbsoluteWeights(t *testing.T) {
	s := [][]float64{{0, 0}, {0, 0}}
	a := [][]float64{{0, 0}, {5, 0}}
	p, err := planners.NewProportional(core.Sparse(s), core.Sparse(a))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := modeltest.PlanDense(p, []float64{0, 10}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Take[1] <= 0 {
		t.Errorf("absolute agreement should attract redirection, got %v", plan.Take)
	}
	var sum float64
	for _, x := range plan.Take {
		sum += x
	}
	almost(t, sum, 4, 1e-9, "total")
}

func TestPlannersSatisfyInterface(t *testing.T) {
	// Appending each planner to []planners.Planner is the compile-time
	// check; the loop exercises the dynamic path through the interface.
	var all []planners.Planner
	s := complete(3, 0.2)
	al, _ := core.NewAllocator(core.Sparse(s), nil, core.Config{})
	pr, _ := planners.NewProportional(core.Sparse(s), nil)
	gr, _ := planners.NewGreedy(core.Sparse(s), nil, core.Config{})
	hi, _ := planners.NewHierarchy(core.Sparse(s), nil, [][]int{{0}, {1}, {2}}, core.Config{})
	all = append(all, al, pr, gr, hi)
	v := []float64{5, 5, 5}
	for i, p := range all {
		if p == nil {
			t.Fatalf("planner %d is nil", i)
		}
		if c := p.Capacity(v, 0); c < 2 {
			t.Errorf("planner %d: capacity %g", i, c)
		}
		_, takes, _, err := p.PlanPairs(nil, nil, v, 0, 2)
		if err != nil {
			t.Errorf("planner %d: %v", i, err)
			continue
		}
		var sum float64
		for _, x := range takes {
			sum += x
		}
		if math.Abs(sum-2) > 1e-6 {
			t.Errorf("planner %d: takes sum to %g", i, sum)
		}
	}
}
