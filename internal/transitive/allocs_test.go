//go:build !race

package transitive

import "testing"

// TestUpdateEdgeAllocs pins one share's closure delta at the churn
// benchmark's shape: chains of eight under full exact transitivity and the
// serving step budget, a chain's head sharing a little more with its
// successor. The head has no predecessor, so one T row is recomputed and
// changes. What is left: the derived closure and its two row tables (S's
// and T's), the edited agreement row, the changed T row's two slices and
// the changed-row list. The affected set, its seen set and the budget meter
// cost nothing, so the count is the same in a population of 128 and of
// 8 192.
func TestUpdateEdgeAllocs(t *testing.T) {
	for _, n := range []int{128, 8192} {
		cols, vals := make([][]int32, n), make([][]float64, n)
		for j := 0; j+1 < n; j++ {
			if j%8 != 7 {
				cols[j], vals[j] = []int32{int32(j + 1)}, []float64{0.1 + float64(j%5)/20}
			}
		}
		c, err := NewClosureBudget(n, cols, vals, 1<<30, false, 50_000_000)
		if err != nil {
			t.Fatal(err)
		}
		old := c.Edge(0, 1)
		got := testing.AllocsPerRun(100, func() {
			if _, changed, err := c.UpdateEdge(0, 1, old, old+0.005); err != nil || len(changed) != 1 {
				t.Fatalf("UpdateEdge: rows %v, err %v; want one changed row", changed, err)
			}
		})
		t.Logf("n=%d: UpdateEdge makes %v allocations", n, got)
		if got > 7 {
			t.Errorf("n=%d: UpdateEdge makes %v allocations, want at most 7", n, got)
		}
	}
}
