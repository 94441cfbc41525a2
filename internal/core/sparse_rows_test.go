package core

import (
	"math/rand"
	"testing"

	"repro/internal/num"
)

// TestFootprintTracksEdges builds the blocks-of-eight population at two
// sizes four times apart: the planner's footprint must grow with the
// edges (4×), not with the square of the population (16×).
func TestFootprintTracksEdges(t *testing.T) {
	bytesAt := func(n int) (planner, closure int) {
		s, a, _ := sparseBlocksScenario(n)
		al, err := NewAllocator(s, a, Config{ComponentLP: true})
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

// TestDenseExportsAreCopies scribbles over everything T() and
// FlowCoefficients() return: the next export and the next Plan must not
// notice.
func TestDenseExportsAreCopies(t *testing.T) {
	s, v := mutateScenario(rand.New(rand.NewSource(9)), 10, 18)
	al, err := NewAllocator(sparse(s), nil, Config{})
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
	fresh, err := NewAllocator(sparse(s), nil, Config{})
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

// TestKRowAliasesTUnlessCapped walks one row across the overdraft cap and
// back through PatchShare: K is the T slice itself while no coefficient
// exceeds 1, a clamped copy while one does.
func TestKRowAliasesTUnlessCapped(t *testing.T) {
	s := [][]float64{
		{0, 0.5, 0.9},
		{0, 0, 0},
		{0, 0.2, 0},
	}
	al, err := NewAllocator(sparse(s), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(wantK01 float64, wantAlias bool) {
		t.Helper()
		_, tv, kv := al.FlowRow(0)
		if got := al.kAt(0, 1); !num.Eq(got, wantK01) {
			t.Fatalf("K[0][1] = %v, want %v", got, wantK01)
		}
		if alias := &tv[0] == &kv[0]; alias != wantAlias {
			t.Fatalf("K row 0 aliases its T row = %v, want %v (T = %v)", alias, wantAlias, tv)
		}
	}
	check(0.5+0.9*0.2, true)
	if err := al.PatchShare(2, 1, 0.2, 0.9); err != nil { // T[0][1] = 0.5 + 0.81 > 1
		t.Fatal(err)
	}
	check(1, false)
	if err := al.PatchShare(2, 1, 0.9, 0.2); err != nil {
		t.Fatal(err)
	}
	check(0.5+0.9*0.2, true)
}
