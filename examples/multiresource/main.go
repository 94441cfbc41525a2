// Multi-resource requests, coupled allocation, and multi-grid refinement:
// the extensions of the paper's Section 3.2.
//
// Three scenarios on a 6-principal community:
//
//  1. A request for two independent resource types (cpu + disk) solved as
//     two linear systems, failing atomically if either falls short.
//  2. A coupled "cpu+mem" bundle (the paper's "resources that must be
//     allocated together... bind these types into a new type").
//  3. A hierarchical agreement structure solved by multi-grid refinement:
//     a coarse LP across groups, then a fine LP inside each contributing
//     group.
//  4. Multiple views of one resource (the paper's named future work):
//     read and write bandwidth with separate agreements drawing from the
//     same physical disks.
//
// Run with: go run ./examples/multiresource
package main

import (
	"fmt"
	"log"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/planners"
)

func main() {
	const n = 6
	// Everyone shares 60% with everyone (complete graph) for both types.
	dense := make([][]float64, n)
	for i := range dense {
		dense[i] = make([]float64, n)
		for j := range dense[i] {
			if i != j {
				dense[i][j] = 0.6 / (n - 1)
			}
		}
	}
	s := sparseOf(dense)

	// --- 1. multi-type request ------------------------------------
	mu := planners.NewMulti(n)
	check(mu.AddType("cpu", s, nil, core.Config{}))
	check(mu.AddType("disk", s, nil, core.Config{}))
	v := map[string][]float64{
		"cpu":  {2, 8, 8, 8, 8, 8},
		"disk": {10, 50, 50, 50, 50, 50},
	}
	plans, err := mu.Plan(v, 0, map[string]float64{"cpu": 4, "disk": 20})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("multi-type request (4 cpu + 20 disk for principal 0):")
	for _, typ := range mu.Types() {
		fmt.Printf("  %s takes: %v\n", typ, round(scatter(n, plans[typ].Sources, plans[typ].Takes)))
	}

	// --- 2. coupled bundle -----------------------------------------
	coupled, err := planners.NewCoupled(s, nil, core.Config{}, map[string]float64{"cpu": 2, "mem": 4})
	if err != nil {
		log.Fatal(err)
	}
	bundleV := map[string][]float64{
		"cpu": {2, 20, 20, 20, 20, 20},
		"mem": {4, 10, 40, 40, 40, 40},
	}
	bundles, err := coupled.BundleAvailability(bundleV)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncoupled bundles (2 cpu + 4 mem each) available per principal: %v\n", round(bundles))
	bundlePlan, err := coupled.Plan(bundleV, 0, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("allocating 3 bundles for principal 0 (components stay on one machine):")
	for _, typ := range []string{"cpu", "mem"} {
		fmt.Printf("  %s takes: %v\n", typ, round(scatter(n, bundlePlan[typ].Sources, bundlePlan[typ].Takes)))
	}

	// --- 3. hierarchical multi-grid -------------------------------
	groups := [][]int{{0, 1, 2}, {3, 4, 5}}
	h, err := planners.NewHierarchy(s, nil, groups, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	vh := []float64{1, 1, 1, 30, 30, 30} // home group drained
	sources, takes, _, err := h.PlanPairs(nil, nil, vh, 0, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhierarchical allocation of 8 for principal 0 (home group nearly empty):\n")
	fmt.Printf("  takes: %v\n", round(scatter(n, sources, takes)))
	fmt.Printf("  coarse grid sent the request across groups; fine grids picked the sources\n")

	// --- 4. multi-view resource -----------------------------------
	// Principal 1 shares its disks generously for reads (80%) but keeps
	// writes close (20%); both views drain the same physical pool.
	views := map[string]*agreement.SparseMatrix{
		"disk-read":  sparseOf([][]float64{{0, 0}, {0.8, 0}}),
		"disk-write": sparseOf([][]float64{{0, 0}, {0.2, 0}}),
	}
	mv, err := planners.NewMultiView(views, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	pool := []float64{0, 10}
	viewPlan, err := mv.Plan(pool, 0, map[string]float64{"disk-read": 5, "disk-write": 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmulti-view disks (10 units at principal 1, read 80%% / write 20%% agreements):\n")
	var drawn float64
	for _, view := range mv.Views() {
		take := scatter(len(pool), viewPlan[view].Sources, viewPlan[view].Takes)
		fmt.Printf("  %s takes: %v\n", view, round(take))
		drawn += take[1]
	}
	fmt.Printf("  remaining physical pool at principal 1: %.1f\n", max(pool[1]-drawn, 0))
}

// scatter spreads a plan's (source, take) pairs over n principals for
// printing.
func scatter(n int, sources []int, takes []float64) []float64 {
	out := make([]float64, n)
	for k, i := range sources {
		out[i] = takes[k]
	}
	return out
}

func round(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int(x*100+0.5)) / 100
	}
	return out
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// sparseOf imports a dense agreement literal in the CSR form the planners
// take.
func sparseOf(dense [][]float64) *agreement.SparseMatrix {
	s, err := agreement.SparseOf(dense)
	check(err)
	return s
}
