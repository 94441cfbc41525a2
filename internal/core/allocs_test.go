//go:build !race

package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
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
			plan() // the workspace's buffers fit every member's LP
		}
		if got := testing.AllocsPerRun(100, plan); got != 0 {
			t.Errorf("n=%d: a steady-state PlanPairs makes %v allocations, want 0", n, got)
		}
		if got := steadyBytes(1000, plan); got != 0 {
			t.Errorf("n=%d: 1000 steady-state PlanPairs calls allocate %d bytes, want 0", n, got)
		}
	}
}

// TestPlanAfterCollectionAllocatesNothing pins the workspace across
// collections at the churn128 shape, whose full-formulation tableau is the
// largest scratch a served plan keeps: after two collections — what Go's
// forced collections do to an idle server within four minutes — the next
// PlanPairs still allocates nothing, because the allocator's free list
// holds its workspace and a collection does not empty it. The plans run on
// one P, so no other goroutine allocates between the two readings.
func TestPlanAfterCollectionAllocatesNothing(t *testing.T) {
	al := churn128Allocator(t)
	_, _, v := sparseBlockScenario(128, 1)
	sources, takes := make([]int, 0, 128), make([]float64, 0, 128)
	plan := func() {
		var err error
		if sources, takes, _, err = al.PlanPairs(sources[:0], takes[:0], v, 5, 1.5); err != nil {
			t.Fatal(err)
		}
	}
	plan() // the workspace's model and tableau fit the plan
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 20; i++ {
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		plan()
		runtime.ReadMemStats(&after)
		if mallocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; mallocs != 0 || bytes != 0 {
			t.Fatalf("round %d: a PlanPairs after two collections makes %d allocations, %d bytes, want 0 and 0", i, mallocs, bytes)
		}
	}
}

// steadyBytes returns the bytes runs calls of fn allocate in all, exactly:
// the least of three readings, with the collector on, as in a server. A
// reading may count what is not fn's: a runtime goroutine may allocate
// during it, and the write path's scratch still lives in sync.Pools (core's
// patch lists, transitive's row sets), which two collections in one reading
// empty and a goroutine the scheduler moves to a new P makes allocate that
// P's first chain link. Each spoils a reading, seldom all three. A plan's own
// workspace sits on the allocator's free list, which no collection touches.
func steadyBytes(runs int, fn func()) uint64 {
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
// solved the model a plan built, solving it again — standard form, both
// phases and every pivot — allocates nothing.
func TestSolveChurn128AllocatesNothing(t *testing.T) {
	al := churn128Allocator(t)
	_, _, v := sparseBlockScenario(128, 1)
	ws := al.getWS()
	if err := al.plan(ws, v, 5, 1.5); err != nil {
		t.Fatal(err)
	}
	model := &ws.model
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

// firstPlanCost plans requester on a fresh workspace that has planned
// warm first, in turn, and returns the allocations and bytes of requester's
// plan alone. Its caller runs on one P, so no other goroutine allocates
// between the two readings.
func firstPlanCost(t *testing.T, al *Allocator, v []float64, warm []int, requester int, amount float64) (mallocs, bytes uint64) {
	t.Helper()
	ws := newPlanWS()
	for _, r := range warm {
		if err := al.plan(ws, v, r, amount); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := al.plan(ws, v, requester, amount)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// except returns rs without r.
func except(rs []int, r int) []int {
	return slices.DeleteFunc(slices.Clone(rs), func(x int) bool { return x == r })
}

// TestFirstPlanAllocatesNothing pins the first plan for a requester a
// workspace has never planned: a plan keeps nothing per requester, and its
// LP is built into buffers the workspace reuses, so once the workspace has
// planned the others — among them a model at least as large in every
// dimension — the newcomer's plan allocates nothing. At the churn128 shape
// (the full formulation over 128 principals, every block of eight the same
// pattern) and for each member of one nine-principal ComponentLP component
// in populations of 64 and of 8 192.
func TestFirstPlanAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	al := churn128Allocator(t)
	_, _, v := sparseBlockScenario(128, 1)
	all := make([]int, al.n)
	for r := range all {
		all[r] = r
	}
	for _, r := range []int{0, 5, 127} {
		if mallocs, bytes := firstPlanCost(t, al, v, except(all, r), r, 1.5); mallocs != 0 || bytes != 0 {
			t.Errorf("full formulation, n=128: the first plan for requester %d makes %d allocations, %d bytes, want 0 and 0", r, mallocs, bytes)
		}
	}
	for _, n := range []int{64, 8192} {
		al, v, member := embeddedComponent(t, n)
		for _, r := range member {
			if mallocs, bytes := firstPlanCost(t, al, v, except(member, r), r, 19.3); mallocs != 0 || bytes != 0 {
				t.Errorf("ComponentLP, n=%d: the first plan for member %d makes %d allocations, %d bytes, want 0 and 0", n, r, mallocs, bytes)
			}
		}
	}
}

// TestFreshWorkspaceTableauAllocs pins the simplex scratch of a fresh
// workspace at the churn128 shape. Planning requesters 0..127 in turn, whose
// tableaus differ by a few columns (286×510 up to 286×512 float64s, about
// 1.2 MB), it allocates the tableau's backing array once: exactly one plan
// allocates a megabyte or more, where a tableau sized to each model exactly
// is allocated again when a wider one comes. The plans run on one P, so no
// other goroutine allocates between the readings.
func TestFreshWorkspaceTableauAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	al := churn128Allocator(t)
	_, _, v := sparseBlockScenario(128, 1)
	ws := newPlanWS()
	var big []int
	for r := 0; r < al.n; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := al.plan(ws, v, r, 1.5)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if after.TotalAlloc-before.TotalAlloc >= 1<<20 {
			big = append(big, r)
		}
	}
	if len(big) != 1 {
		t.Errorf("a fresh workspace planning requesters 0..127 allocates a megabyte or more in the plans for %v, want in one: the tableau's backing, once", big)
	}
}

// TestSetShareAllocs pins the other half of a write: patching the column
// lists costs the same allocations whether the edge moved one column or
// forty. A hub shares with `leaves` principals; principal 0 starts sharing
// with the hub (PatchShare) and stops again, so its T and K rows gain and
// lose an entry in the hub's column and every leaf's while only that one T
// row changes: the closure's own work is the same at every size, and the
// difference would be the column patching's.
func TestSetShareAllocs(t *testing.T) {
	patchAllocs := func(leaves int) float64 {
		n := leaves + 2
		sb := agreement.NewSparseBuilder(n)
		for j := 2; j < n; j++ {
			sb.Add(1, j, 0.9/float64(leaves))
		}
		al, err := NewAllocator(sb.Build(), nil, Config{})
		if err != nil {
			t.Fatal(err)
		}
		var moved int
		allocs := testing.AllocsPerRun(50, func() {
			before := slices.Clone(al.cols)
			if err := al.PatchShare(0, 1, 0, 0.5); err != nil {
				t.Fatal(err)
			}
			moved = 0
			for c, col := range al.cols {
				if len(col.idx) != len(before[c].idx) {
					moved++
				}
			}
			if err := al.PatchShare(0, 1, 0.5, 0); err != nil {
				t.Fatal(err)
			}
		})
		if moved != leaves+1 {
			t.Fatalf("%d leaves: the share relaid %d columns, want %d", leaves, moved, leaves+1)
		}
		return allocs
	}
	few, many := patchAllocs(1), patchAllocs(40)
	t.Logf("a share and revoke relaying 2 columns: %v allocations, 41 columns: %v", few, many)
	if few != many {
		t.Errorf("relaying 2 columns makes %v allocations, relaying 41 makes %v: a write should not pay per column", few, many)
	}
	if many > 9 {
		t.Errorf("a share and revoke relaying 41 columns make %v allocations, want <= 9: new S and T rows and one int32 and one float64 arena for the columns", many)
	}
}

// TestPatchShareAllocs pins the served write: a churn cycle's share and
// revoke on an edge that already exists (valueSharePair), patched in place,
// move values only, so they allocate nothing — the S entry, the
// recomputed T rows and the moved columns are written over — in a
// population of 128 and of 4 096 alike.
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
		pair() // the scratch pools fill
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
// two slices, while the T row and the columns, whose values alone move, are
// written over; the pair makes at most 4 allocations and allocates the same bytes, within 5 %, in a
// population of 128 and of 4 096.
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
		if got > 4 {
			t.Errorf("n=%d: a pattern-flipping share+revoke pair makes %v allocations, want at most 4", n, got)
		}
	}
	if small, large := perPair[128], perPair[4096]; large > 1.05*small || small > 1.05*large {
		t.Errorf("a pattern-flipping pair allocates %.0f bytes at n=128 and %.0f at n=4096, want the same within 5%%", small, large)
	}
}

// TestValueChurnPlanAllocatesNothing pins what a value-only write leaves
// the next plan to pay, in every variant of the churn blocks: nothing. A
// share moved, or an absolute agreement raised, in place and back on
// alternate calls, and then a PlanPairs makes exactly the allocations of
// the write alone — the plan builds its LP into the workspace the plans
// before the write left — and plans as a fresh build does.
func TestValueChurnPlanAllocatesNothing(t *testing.T) {
	churnVariants(t, func(label string, al *Allocator, v []float64) {
		sources, takes := make([]int, 0, 16), make([]float64, 0, 16)
		plan := func() {
			var err error
			if sources, takes, _, err = al.PlanPairs(sources[:0], takes[:0], v, 3, 2.5); err != nil {
				t.Fatal(err)
			}
		}
		// toggle moves a cell between its value and another, nonzero one.
		toggle := func(get func(i, j int) float64, patch func(i, j int, old, next float64) error, i, j int, other float64) func() {
			vals := [2]float64{get(i, j), other}
			k := 0
			return func() {
				if err := patch(i, j, vals[k%2], vals[(k+1)%2]); err != nil {
					t.Fatal(err)
				}
				k++
			}
		}
		writes := map[string]func(){
			"a share halved": toggle(al.Share, al.PatchShare, 0, 1, al.Share(0, 1)/2),
		}
		if al.hasA {
			writes["an absolute agreement raised"] = toggle(al.Agreement, al.PatchAgreement, 7, 0, al.Agreement(7, 0)+1)
		}
		for what, write := range writes {
			alone := testing.AllocsPerRun(50, write)
			withPlan := testing.AllocsPerRun(50, func() { write(); plan() })
			t.Logf("%s, %s: the write makes %v allocations, the write and a plan %v", label, what, alone, withPlan)
			if withPlan != alone {
				t.Errorf("%s, %s: the plan after the write makes %v allocations, want 0", label, what, withPlan-alone)
			}
			fresh := rebuilt(t, al)
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

// TestGrowCopiesHeadersOnly registers 2 048 principals, one Grow(1) at a
// time, on a 2048-principal planner, in place: every per-principal table
// is appended to with amortized capacity, so the registrations make a
// fraction of an allocation and a fixed number of bytes per principal on
// average, nothing that grows with the population, and the planner then
// plans exactly as a fresh build over the extended matrices does. (The race
// detector's instrumentation allocates each zeroed tail an append adds.)
func TestGrowCopiesHeadersOnly(t *testing.T) {
	const n = 2048
	s, a, v := sparseBlocksScenario(n)
	cfg := Config{ComponentLP: true}
	al, err := NewAllocator(s, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		al.Grow(1)
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / n
	perGrow := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("Grow(1) from n=%d to %d: %.3f allocations and %d bytes per principal", n, 2*n, allocs, perGrow)
	if allocs > 0.1 {
		t.Errorf("Grow(1) made %.3f allocations per principal, want amortized appends (<= 0.1)", allocs)
	}
	if perGrow > 2048 {
		t.Errorf("Grow(1) allocated %d bytes per principal, want the amortized growth of a few slice headers (<= 2048)", perGrow)
	}

	N := 2 * n
	fresh, err := NewAllocator(padded(s, N), padded(a, N), cfg)
	if err != nil {
		t.Fatal(err)
	}
	vg := append(slices.Clone(v), make([]float64, n)...)
	for i := n; i < N; i++ {
		vg[i] = 75
	}
	for _, r := range []int{0, 7, 1000, n - 1, n, N - 1} {
		amount := fresh.Capacities(vg)[r] * 0.4
		pg, eg := al.Plan(vg, r, amount)
		pf, ef := fresh.Plan(vg, r, amount)
		if eg != nil || ef != nil {
			t.Fatalf("requester %d: grown err %v, fresh err %v", r, eg, ef)
		}
		if pg.Theta != pf.Theta {
			t.Fatalf("requester %d: θ = %v grown, %v fresh", r, pg.Theta, pf.Theta)
		}
		if !sameBits(pg.Take, pf.Take) {
			t.Fatalf("requester %d: takes %v grown, %v fresh", r, pg.Take, pf.Take)
		}
	}
}

// padded returns m over N principals, the rows and columns past m's empty.
func padded(m *agreement.SparseMatrix, N int) *agreement.SparseMatrix {
	b := agreement.NewSparseBuilder(N)
	for i := 0; i < m.N(); i++ {
		cols, vals := m.Row(i)
		for x, j := range cols {
			b.Add(i, int(j), vals[x])
		}
	}
	return b.Build()
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
