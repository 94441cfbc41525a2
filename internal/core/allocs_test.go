//go:build !race

package core

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/agreement"
)

// TestPlanPairsAllocatesNothing pins the served plan's steady state: with
// capacity in the caller's slices a PlanPairs call allocates nothing, and
// the same component costs the same zero bytes a plan in a population of 64
// and in one of 8 192. The race detector's instrumentation allocates, so
// the race legs skip this file.
func TestPlanPairsAllocatesNothing(t *testing.T) {
	for _, n := range []int{64, 8192} {
		al, v, member := embeddedComponent(t, n)
		sources, takes := make([]int, 0, 16), make([]float64, 0, 16)
		r := 0
		plan := func() {
			var err error
			if sources, takes, _, err = al.PlanPairs(sources[:0], takes[:0], v, member[r%len(member)], 19.3); err != nil {
				t.Fatal(err)
			}
			r++
		}
		for range member {
			plan() // every requester's skeleton and model clone exists
		}
		if got := testing.AllocsPerRun(100, plan); got != 0 {
			t.Errorf("n=%d: a steady-state PlanPairs makes %v allocations, want 0", n, got)
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan()
			}
		})
		if got := res.AllocedBytesPerOp(); got != 0 {
			t.Errorf("n=%d: a steady-state PlanPairs allocates %d bytes, want 0", n, got)
		}
	}
}

// buildCost measures one buildSkeleton for requester: its allocations and
// the bytes they hold.
func buildCost(al *Allocator, requester int) (allocs float64, bytes int64) {
	sk := new(planSkeleton) // the slot, which skeleton() allocates once per requester
	build := func() {
		*sk = planSkeleton{}
		al.buildSkeleton(sk, requester)
	}
	allocs = testing.AllocsPerRun(50, build)
	// The least of a few readings: the runtime's own background allocations
	// land in TotalAlloc too, and only ever add.
	const runs = 20
	bytes = math.MaxInt64
	for reading := 0; reading < 5; reading++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			build()
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, int64(after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return allocs, bytes
}

// TestBuildSkeletonAllocs pins what a mutation leaves the next plan to
// pay. Every share and revoke drops skeletons, so a build is on the write
// path: at the churn128 shape (129 variables, 143 rows under the full
// formulation) it makes a dozen allocations — the slices of the skeleton
// and of the model, each once — not one per name, row and term list; and
// under ComponentLP the same nine-principal component costs the same
// allocations and the same bytes in a population of 64 and in one of 8 192.
func TestBuildSkeletonAllocs(t *testing.T) {
	al := churn128Allocator(t)
	for _, r := range []int{0, 5, 127} {
		got, bytes := buildCost(al, r)
		t.Logf("full formulation, n=128, requester %d: %v allocations, %d bytes", r, got, bytes)
		if got > 12 {
			t.Errorf("full formulation, n=128, requester %d: buildSkeleton makes %v allocations, want <= 12", r, got)
		}
	}
	small, _, member := embeddedComponent(t, 64)
	large, _, _ := embeddedComponent(t, 8192)
	for _, r := range member {
		sa, sb := buildCost(small, r)
		la, lb := buildCost(large, r)
		t.Logf("ComponentLP requester %d: %v allocations, %d bytes", r, sa, sb)
		if sa != la || sb != lb {
			t.Errorf("ComponentLP requester %d: a build costs %v allocations and %d bytes at n=64, %v and %d at n=8192",
				r, sa, sb, la, lb)
		}
		if sa > 13 {
			t.Errorf("ComponentLP requester %d: buildSkeleton makes %v allocations, want <= 13", r, sa)
		}
	}
}

// TestSetShareAllocs pins the other half of a write: patching the column
// lists costs the same allocations whether the edge moved one column or
// forty. A hub shares with `leaves` principals and one principal shares
// with the hub; moving that share moves K in the hub's column and every
// leaf's while only one T row changes, so the closure's own work is the
// same at every size and the difference would be the column patching's.
func TestSetShareAllocs(t *testing.T) {
	patchAllocs := func(leaves int) float64 {
		n := leaves + 2
		sb := agreement.NewSparseBuilder(n)
		sb.Add(0, 1, 0.5)
		for j := 2; j < n; j++ {
			sb.Add(1, j, 0.9/float64(leaves))
		}
		al, err := NewAllocatorSparse(sb.Build(), nil, Config{})
		if err != nil {
			t.Fatal(err)
		}
		clo, changed, err := al.clo.UpdateEdge(0, 1, 0.5, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		var moved int
		allocs := testing.AllocsPerRun(50, func() {
			d := al.derive()
			d.clo = clo
			d.applyClosureDelta(al, changed)
			moved = 0
			for c := range d.colIdx {
				if len(d.colIdx[c]) > 0 && &d.colIdx[c][0] != &al.colIdx[c][0] {
					moved++
				}
			}
		})
		if moved != leaves+1 {
			t.Fatalf("%d leaves: the patch replaced %d columns, want %d", leaves, moved, leaves+1)
		}
		return allocs
	}
	few, many := patchAllocs(1), patchAllocs(40)
	t.Logf("patching 2 columns: %v allocations, 41 columns: %v", few, many)
	if few != many {
		t.Errorf("patching 2 columns makes %v allocations, patching 41 makes %v: a mutation should not pay per column", few, many)
	}
	if many > 12 {
		t.Errorf("patching 41 columns makes %v allocations, want <= 12", many)
	}
}
