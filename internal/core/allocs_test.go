//go:build !race

package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/agreement"
	"repro/internal/lp"
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
		if got := steadyBytes(1000, plan); got != 0 {
			t.Errorf("n=%d: 1000 steady-state PlanPairs calls allocate %d bytes, want 0", n, got)
		}
	}
}

// steadyBytes returns the bytes runs calls of fn allocate in all, exactly:
// the least of three readings, since a runtime goroutine may allocate
// during one, with the collector off and on one P. Two collections empty a
// sync.Pool, after which the next plan rebuilds its workspace (83
// allocations, 43 KB at n=64); testing.Benchmark forces one per round, so
// its bytes per operation read 1 about one run in three. And a goroutine
// the scheduler moves to another P puts its workspace back into that P's
// part of the pool, which may have to allocate its first chain link
// (176 B).
func steadyBytes(runs int, fn func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := uint64(math.MaxUint64)
	for reading := 0; reading < 3; reading++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestSolveChurn128AllocatesNothing pins the served solve at the churn128
// shape, the largest LP a benchmark workload serves: once a workspace has
// solved the rebound model, solving it again — standard form, both phases
// and every pivot — allocates nothing.
func TestSolveChurn128AllocatesNothing(t *testing.T) {
	al := churn128Allocator(t)
	_, _, v := sparseBlockScenario(128, 1)
	ws := al.pool.Get().(*planWS)
	if err := al.plan(ws, v, 5, 1.5); err != nil {
		t.Fatal(err)
	}
	model := ws.clones[5].model
	var pivots int
	solve := func() {
		sol, err := model.SolveWithWorkspace(lp.Tableau, &ws.lpws)
		if err != nil {
			t.Fatal(err)
		}
		pivots = sol.Pivots
	}
	got := testing.AllocsPerRun(20, solve)
	t.Logf("churn128 LP: %d variables, %d rows, %d pivots", model.NumVars(), model.NumConstraints(), pivots)
	if got != 0 {
		t.Errorf("a warmed solve of the churn128 LP (%d variables, %d rows, %d pivots) makes %v allocations, want 0",
			model.NumVars(), model.NumConstraints(), pivots, got)
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

// TestBuildSkeletonAllocs pins what a mutation that flips a cell leaves
// the next plan to pay. Such a share or revoke drops skeletons, so a build
// is on the write path: at the churn128 shape (129 variables, 143 rows
// under the full formulation) it makes a dozen allocations — the slices of
// the skeleton and of the model, each once — not one per name, row and
// term list; and under ComponentLP the same nine-principal component costs
// the same allocations and the same bytes in a population of 64 and in one
// of 8 192.
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
		ps := &patchScratch{rows: changed}
		for _, r := range changed {
			cols, _ := al.clo.FlowRow(r)
			ps.old = append(ps.old, cols)
		}
		var moved int
		allocs := testing.AllocsPerRun(50, func() {
			d := *al
			d.clo, d.flow, d.cols = clo, slices.Clone(al.flow), slices.Clone(al.cols)
			d.applyClosureDelta(ps)
			moved = 0
			for c, col := range d.cols {
				if len(col.idx) > 0 && &col.idx[0] != &al.cols[c].idx[0] {
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
	if many > 4 {
		t.Errorf("patching 41 columns makes %v allocations, want <= 4: the flow table, the column table and two arenas", many)
	}
}

// TestPatchShareAllocs pins the served write: a churn cycle's share and
// revoke on an edge that already exists (valueSharePair), patched in place,
// move values only, so once the first pair through each row has laid out
// the allocator's own S row and columns they allocate nothing — the S
// entry, the recomputed T rows and the moved columns are written over — in
// a population of 128 and of 4 096 alike.
func TestPatchShareAllocs(t *testing.T) {
	const runs = 200
	for _, n := range []int{128, 4096} {
		al := churnAllocator(t, n)
		i := 0
		pair := func() {
			if err := valueSharePair(al, i); err != nil {
				t.Fatal(err)
			}
			i++
		}
		for range 7 {
			pair() // the build's S rows alias its input and its columns share one arena: the first write copies them
		}
		got, bytes := testing.AllocsPerRun(runs, pair), steadyBytes(runs, pair)
		t.Logf("n=%d: a value-only share+revoke pair patched in place makes %v allocations, %d bytes in %d pairs", n, got, bytes, runs)
		if got != 0 || bytes != 0 {
			t.Errorf("n=%d: a value-only share+revoke pair patched in place makes %v allocations and %d pairs allocate %d bytes, want 0 and 0",
				n, got, runs, bytes)
		}
	}
}

// TestPatchFlipAllocs pins a pair of writes that flip a pattern
// (flipSharePair): a block's head shares with a principal down its chain it
// does not share with yet, and revokes it. Each write lays out a new S row,
// while the T row and the columns, whose values alone move, are written
// over; the pair makes at most 11 allocations, what a pair cost while every
// write copied the rows and columns it changed, and allocates the same bytes,
// within 5 %, in a population of 128 and of 4 096.
func TestPatchFlipAllocs(t *testing.T) {
	const runs = 200
	perPair := map[int]float64{}
	for _, n := range []int{128, 4096} {
		al := churnAllocator(t, n)
		i := 0
		pair := func() {
			if err := flipSharePair(al, i); err != nil {
				t.Fatal(err)
			}
			i++
		}
		got := testing.AllocsPerRun(runs, pair)
		perPair[n] = float64(steadyBytes(runs, pair)) / runs
		t.Logf("n=%d: a pattern-flipping share+revoke pair makes %v allocations, %.0f bytes", n, got, perPair[n])
		if got > 11 {
			t.Errorf("n=%d: a pattern-flipping share+revoke pair makes %v allocations, want at most 11", n, got)
		}
	}
	if small, large := perPair[128], perPair[4096]; large > 1.05*small || small > 1.05*large {
		t.Errorf("a pattern-flipping pair allocates %.0f bytes at n=128 and %.0f at n=4096, want the same within 5%%", small, large)
	}
}

// TestValueChurnPlanAllocatesNothing pins what a value-only write leaves
// the next plan to pay, in every variant of the churn blocks: nothing. A
// share moved, or an absolute agreement raised, and then a PlanPairs on the
// derived allocator makes exactly the allocations of the write alone — the
// plan reuses the skeleton and the model clone the receiver's plans left,
// rebound to the new values — and plans as a fresh build does.
func TestValueChurnPlanAllocatesNothing(t *testing.T) {
	churnVariants(t, func(label string, al *Allocator, v []float64) {
		sources, takes := make([]int, 0, 16), make([]float64, 0, 16)
		var d *Allocator
		plan := func() {
			var err error
			if sources, takes, _, err = d.PlanPairs(sources[:0], takes[:0], v, 3, 2.5); err != nil {
				t.Fatal(err)
			}
		}
		writes := map[string]func() (*Allocator, error){
			"a share halved": func() (*Allocator, error) { return al.SetShare(0, 1, al.Share(0, 1), al.Share(0, 1)/2) },
		}
		if al.hasA {
			writes["an absolute agreement raised"] = func() (*Allocator, error) {
				return al.SetAgreement(7, 0, al.Agreement(7, 0), al.Agreement(7, 0)+1)
			}
		}
		for what, write := range writes {
			derive := func() {
				var err error
				if d, err = write(); err != nil {
					t.Fatal(err)
				}
			}
			alone := testing.AllocsPerRun(50, derive)
			withPlan := testing.AllocsPerRun(50, func() { derive(); plan() })
			t.Logf("%s, %s: the write makes %v allocations, the write and a plan %v", label, what, alone, withPlan)
			if withPlan != alone {
				t.Errorf("%s, %s: the plan after the write makes %v allocations, want 0", label, what, withPlan-alone)
			}
			fresh := rebuilt(t, d)
			ws, wt, wth, err := fresh.PlanPairs(nil, nil, v, 3, 2.5)
			if err != nil {
				t.Fatal(err)
			}
			plan()
			if !slices.Equal(sources, ws) || !sameBits(takes, wt) {
				t.Errorf("%s, %s: plans %v %v, a fresh build %v %v (θ %v)", label, what, sources, takes, ws, wt, wth)
			}
		}
	})
}

// TestShortfallAllocs pins a refusal for want of capacity at one
// allocation, the error itself: its message, the same text the wrapped
// ErrInsufficient used to carry, is formatted only when read.
func TestShortfallAllocs(t *testing.T) {
	al, v, member := embeddedComponent(t, 64)
	var err error
	got := testing.AllocsPerRun(100, func() {
		_, _, _, err = al.PlanPairs(nil, nil, v, member[0], 1e9)
	})
	if got > 1 {
		t.Errorf("refusing an oversized request makes %v allocations, want at most 1", got)
	}
	c := al.Capacity(v, member[0])
	want := fmt.Errorf("%w: principal %d has capacity %g, requested %g", ErrInsufficient, member[0], c, 1e9)
	if !errors.Is(err, ErrInsufficient) || err.Error() != want.Error() {
		t.Errorf("refusal %q (is ErrInsufficient: %v), want %q", err, errors.Is(err, ErrInsufficient), want)
	}
}
