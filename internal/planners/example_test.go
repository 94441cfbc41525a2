package planners_test

import (
	"fmt"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/planners"
	"repro/internal/store"
)

// The four scenarios of examples/multiresource, on its 6-principal
// community where everyone shares 60% with everyone.

func sixShares() *agreement.SparseMatrix {
	const n = 6
	s := make([][]float64, n)
	for i := range s {
		s[i] = make([]float64, n)
		for j := range s[i] {
			if i != j {
				s[i][j] = 0.6 / (n - 1)
			}
		}
	}
	return sparse(s)
}

func round(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int(x*100+0.5)) / 100
	}
	return out
}

func ExampleMulti() {
	s := sixShares()
	mu := planners.NewMulti(6)
	if err := mu.AddType("cpu", s, nil, core.Config{}); err != nil {
		panic(err)
	}
	if err := mu.AddType("disk", s, nil, core.Config{}); err != nil {
		panic(err)
	}
	v := map[string][]float64{
		"cpu":  {2, 8, 8, 8, 8, 8},
		"disk": {10, 50, 50, 50, 50, 50},
	}
	plans, err := mu.Plan(v, 0, map[string]float64{"cpu": 4, "disk": 20})
	if err != nil {
		panic(err)
	}
	fmt.Println("multi-type request (4 cpu + 20 disk for principal 0):")
	for _, typ := range mu.Types() {
		fmt.Printf("  %s takes: %v\n", typ, round(store.DenseTakes(plans[typ].Sources, plans[typ].Takes, 6)))
	}
	// Output:
	// multi-type request (4 cpu + 20 disk for principal 0):
	//   cpu takes: [2 0.4 0.4 0.4 0.4 0.4]
	//   disk takes: [10 2 2 2 2 2]
}

func ExampleCoupled() {
	coupled, err := planners.NewCoupled(sixShares(), nil, core.Config{}, map[string]float64{"cpu": 2, "mem": 4})
	if err != nil {
		panic(err)
	}
	v := map[string][]float64{
		"cpu": {2, 20, 20, 20, 20, 20},
		"mem": {4, 10, 40, 40, 40, 40},
	}
	bundles, err := coupled.BundleAvailability(v)
	if err != nil {
		panic(err)
	}
	fmt.Printf("coupled bundles (2 cpu + 4 mem each) available per principal: %v\n", round(bundles))
	plan, err := coupled.Plan(v, 0, 3)
	if err != nil {
		panic(err)
	}
	fmt.Println("allocating 3 bundles for principal 0 (components stay on one machine):")
	for _, typ := range []string{"cpu", "mem"} {
		fmt.Printf("  %s takes: %v\n", typ, round(store.DenseTakes(plan[typ].Sources, plan[typ].Takes, 6)))
	}
	// Output:
	// coupled bundles (2 cpu + 4 mem each) available per principal: [1 2.5 10 10 10 10]
	// allocating 3 bundles for principal 0 (components stay on one machine):
	//   cpu takes: [2 0.8 0.8 0.8 0.8 0.8]
	//   mem takes: [4 1.6 1.6 1.6 1.6 1.6]
}

func ExampleHierarchy() {
	h, err := planners.NewHierarchy(sixShares(), nil, [][]int{{0, 1, 2}, {3, 4, 5}}, core.Config{})
	if err != nil {
		panic(err)
	}
	sources, takes, _, err := h.PlanPairs(nil, nil, []float64{1, 1, 1, 30, 30, 30}, 0, 8) // home group drained
	if err != nil {
		panic(err)
	}
	fmt.Printf("hierarchical allocation of 8 for principal 0 (home group nearly empty):\n")
	fmt.Printf("  takes: %v\n", round(store.DenseTakes(sources, takes, 6)))
	// Output:
	// hierarchical allocation of 8 for principal 0 (home group nearly empty):
	//   takes: [1 0.2 0.2 2.2 2.2 2.2]
}

func ExampleMultiView() {
	// Principal 1 shares its disks generously for reads (80%) but keeps
	// writes close (20%); both views drain the same physical pool.
	mv, err := planners.NewMultiView(map[string]*agreement.SparseMatrix{
		"disk-read":  sparse([][]float64{{0, 0}, {0.8, 0}}),
		"disk-write": sparse([][]float64{{0, 0}, {0.2, 0}}),
	}, core.Config{})
	if err != nil {
		panic(err)
	}
	pool := []float64{0, 10}
	plan, err := mv.Plan(pool, 0, map[string]float64{"disk-read": 5, "disk-write": 2})
	if err != nil {
		panic(err)
	}
	fmt.Printf("multi-view disks (10 units at principal 1, read 80%% / write 20%% agreements):\n")
	var drawn float64
	for _, view := range mv.Views() {
		take := store.DenseTakes(plan[view].Sources, plan[view].Takes, len(pool))
		fmt.Printf("  %s takes: %v\n", view, round(take))
		drawn += take[1]
	}
	fmt.Printf("  remaining physical pool at principal 1: %.1f\n", max(pool[1]-drawn, 0))
	// Output:
	// multi-view disks (10 units at principal 1, read 80% / write 20% agreements):
	//   disk-read takes: [0 5]
	//   disk-write takes: [0 2]
	//   remaining physical pool at principal 1: 3.0
}
