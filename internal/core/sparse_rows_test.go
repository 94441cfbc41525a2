package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/num"
)

// TestFootprintTracksEdges builds the blocks-of-eight population at two
// sizes four times apart: the planner's footprint must grow with the
// edges (4×), not with the square of the population (16×).
func TestFootprintTracksEdges(t *testing.T) {
	bytesAt := func(n int) (planner, closure int) {
		s, a, _ := sparseBlocksScenario(n)
		al, err := NewAllocatorSparse(s, a, Config{ComponentLP: true})
		if err != nil {
			t.Fatal(err)
		}
		return al.Bytes(), al.clo.Bytes()
	}
	p1, c1 := bytesAt(1024)
	p4, c4 := bytesAt(4096)
	t.Logf("planner bytes: %d at n=1024, %d at n=4096; closure %d, %d", p1, p4, c1, c4)
	if r := float64(p4) / float64(p1); r > 4.5 {
		t.Errorf("planner footprint grew %.2f× for 4× the principals and edges, want ≤ 4.5×", r)
	}
	if r := float64(c4) / float64(c1); r > 4.5 {
		t.Errorf("closure footprint grew %.2f× for 4× the principals and edges, want ≤ 4.5×", r)
	}
	if dense := 2 * 8 * 4096 * 4096; p4 > dense/100 {
		t.Errorf("planner holds %d bytes at n=4096, more than 1%% of the dense T+K (%d)", p4, dense)
	}
}

// TestGrowCopiesHeadersOnly registers one principal on a 2048-principal
// planner: the derived allocator may allocate O(n) bytes of slice headers
// and nothing else, and it must plan exactly as a fresh build over the
// extended population does.
func TestGrowCopiesHeadersOnly(t *testing.T) {
	const n = 2048
	s, a, v := sparseBlocksScenario(n)
	cfg := Config{ComponentLP: true}
	al, err := NewAllocatorSparse(s, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() { al.Grow(1) }); allocs > 24 {
		t.Errorf("Grow(1) made %.0f allocations, want a fixed handful of header slices", allocs)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		al.Grow(1)
	}
	runtime.ReadMemStats(&after)
	perGrow := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("Grow(1) at n=%d allocates %d bytes (%d per principal)", n, perGrow, perGrow/n)
	if perGrow > 512*n {
		t.Errorf("Grow(1) allocated %d bytes, want O(n) headers (≤ %d); dense T and K were %d", perGrow, 512*n, 2*8*n*n)
	}

	grown := al.Grow(1)
	sg, ag, _ := sparseBlocksScenario(n + 1) // the same blocks plus one principal alone in the last
	fresh, err := NewAllocatorSparse(sg, ag, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vg := append(append([]float64(nil), v...), 75)
	for _, r := range []int{0, 7, 1000, n - 1, n} {
		amount := fresh.Capacities(vg)[r] * 0.4
		pg, eg := grown.Plan(vg, r, amount)
		pf, ef := fresh.Plan(vg, r, amount)
		if eg != nil || ef != nil {
			t.Fatalf("requester %d: grown err %v, fresh err %v", r, eg, ef)
		}
		if pg.Theta != pf.Theta { //lint:ignore sharingvet/floateq the test pins bit-identical plans
			t.Fatalf("requester %d: θ = %v grown, %v fresh", r, pg.Theta, pf.Theta)
		}
		for i := range pf.Take {
			if pg.Take[i] != pf.Take[i] { //lint:ignore sharingvet/floateq the test pins bit-identical plans
				t.Fatalf("requester %d: Take[%d] = %v grown, %v fresh", r, i, pg.Take[i], pf.Take[i])
			}
		}
	}
}

// TestDenseExportsAreCopies scribbles over everything T() and
// FlowCoefficients() return: the next export and the next Plan must not
// notice.
func TestDenseExportsAreCopies(t *testing.T) {
	s, v := mutateScenario(rand.New(rand.NewSource(9)), 10, 18)
	al, err := NewAllocator(s, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	amount := al.Capacities(v)[3] * 0.5
	want, err := al.Plan(v, 3, amount)
	if err != nil {
		t.Fatal(err)
	}
	wantT, wantK := al.clo.T(), al.FlowCoefficients()
	for _, m := range [][][]float64{al.clo.T(), al.FlowCoefficients()} {
		for i := range m {
			for j := range m[i] {
				m[i][j] = 99
			}
		}
	}
	gotT, gotK := al.clo.T(), al.FlowCoefficients()
	for i := range wantT {
		if !floatsIdentical(gotT[i], wantT[i]) || !floatsIdentical(gotK[i], wantK[i]) {
			t.Fatalf("row %d of a dense export changed after a caller wrote to an earlier one", i)
		}
	}
	fresh, err := NewAllocator(s, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := fresh.Plan(v, 3, amount)
	if err != nil {
		t.Fatal(err)
	}
	again, err := al.Plan(v, 3, amount)
	if err != nil {
		t.Fatal(err)
	}
	if !floatsIdentical(again.Take, want.Take) || !floatsIdentical(got.Take, want.Take) {
		t.Fatalf("plan moved after the exports were overwritten: %v, fresh %v, before %v", again.Take, got.Take, want.Take)
	}
}

// TestConcurrentFirstPlansShareOneSkeleton races first Plans for one
// requester (under -race in `make race`): the lazily installed skeleton
// must come out unique, and every plan identical.
func TestConcurrentFirstPlansShareOneSkeleton(t *testing.T) {
	s, v := mutateScenario(rand.New(rand.NewSource(9)), 12, 22)
	for trial := 0; trial < 20; trial++ {
		al, err := NewAllocator(s, nil, Config{})
		if err != nil {
			t.Fatal(err)
		}
		amount := al.Capacities(v)[5] * 0.5
		const racers = 8
		plans := make([]*Allocation, racers)
		skels := make([]*planSkeleton, racers)
		var start, done sync.WaitGroup
		start.Add(1)
		for g := 0; g < racers; g++ {
			done.Add(1)
			go func(g int) {
				defer done.Done()
				start.Wait()
				p, err := al.Plan(v, 5, amount)
				if err != nil {
					t.Error(err)
					return
				}
				plans[g], skels[g] = p, al.skel[5].Load()
			}(g)
		}
		start.Done()
		done.Wait()
		if t.Failed() {
			return
		}
		for g := 1; g < racers; g++ {
			if skels[g] != skels[0] || skels[g] == nil {
				t.Fatalf("trial %d: racer %d saw skeleton %p, racer 0 saw %p", trial, g, skels[g], skels[0])
			}
			if !floatsIdentical(plans[g].Take, plans[0].Take) {
				t.Fatalf("trial %d: racer %d Take = %v, racer 0 %v", trial, g, plans[g].Take, plans[0].Take)
			}
		}
		for r := range al.skel {
			if r != 5 && al.skel[r].Load() != nil {
				t.Fatalf("trial %d: requester %d never planned but has a slot", trial, r)
			}
		}
	}
}

// TestKRowAliasesTUnlessCapped walks one row across the overdraft cap and
// back through SetShare: K is the T slice itself while no coefficient
// exceeds 1, a clamped copy while one does.
func TestKRowAliasesTUnlessCapped(t *testing.T) {
	s := [][]float64{
		{0, 0.5, 0.9},
		{0, 0, 0},
		{0, 0.2, 0},
	}
	al, err := NewAllocator(s, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(al *Allocator, wantK01 float64, wantAlias bool) {
		t.Helper()
		_, tv, kv := al.FlowRow(0)
		if got := al.kAt(0, 1); !num.Eq(got, wantK01) {
			t.Fatalf("K[0][1] = %v, want %v", got, wantK01)
		}
		if alias := &tv[0] == &kv[0]; alias != wantAlias {
			t.Fatalf("K row 0 aliases its T row = %v, want %v (T = %v)", alias, wantAlias, tv)
		}
	}
	check(al, 0.5+0.9*0.2, true)
	over, err := al.SetShare(2, 1, 0.2, 0.9) // T[0][1] = 0.5 + 0.81 > 1
	if err != nil {
		t.Fatal(err)
	}
	check(over, 1, false)
	check(al, 0.5+0.9*0.2, true) // the receiver is untouched
	back, err := over.SetShare(2, 1, 0.9, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	check(back, 0.5+0.9*0.2, true)
}
