//go:build !race

package transitive

import "testing"

// TestUpdateEdgeAllocs pins one share's closure patch (PatchEdge) at the
// churn benchmark's shape: chains of eight under full exact transitivity
// and the serving step budget, the first chain's head sharing with a
// principal down its chain. The head has no predecessor, so one T row is
// recomputed and changes. A share on an edge that exists, and its revoke,
// move values only: the S entry and the T row are written over and the
// pair allocates nothing. A share that adds the entry, to a principal the
// head already reaches, and its revoke lay out the S row anew each time,
// two slices, and write over the T row; the affected set, its seen set and
// the budget meter cost nothing, so the count is the same in a population
// of 128 and of 8 192.
func TestUpdateEdgeAllocs(t *testing.T) {
	flips := map[int]float64{}
	for _, n := range []int{128, 8192} {
		cols, vals := make([][]int32, n), make([][]float64, n)
		for j := 0; j+1 < n; j++ {
			if j%8 != 7 {
				cols[j], vals[j] = []int32{int32(j + 1)}, []float64{0.1 + float64(j%5)/20}
			}
		}
		c, err := newClosureCSR(n, cols, vals, 1<<30, 50_000_000)
		if err != nil {
			t.Fatal(err)
		}
		var changed []int
		var old [][]int32
		var held []float64
		pair := func(to int) func() {
			return func() {
				for _, step := range [][2]float64{{0, 0.005}, {0.005, 0}} {
					x := c.Edge(0, to) - step[0]
					if changed, old, held, err = c.PatchEdge(0, to, x+step[0], x+step[1], changed[:0], old[:0], held[:0]); err != nil || len(changed) != 1 {
						t.Fatalf("PatchEdge(0, %d): rows %v, err %v; want one changed row", to, changed, err)
					}
				}
			}
		}
		values := testing.AllocsPerRun(100, pair(1))
		flips[n] = testing.AllocsPerRun(100, pair(3))
		t.Logf("n=%d: a value-only share and revoke make %v allocations, a pattern-flipping pair %v", n, values, flips[n])
		if values != 0 {
			t.Errorf("n=%d: a value-only share and revoke make %v allocations, want 0", n, values)
		}
		if flips[n] > 4 {
			t.Errorf("n=%d: a pattern-flipping share and revoke make %v allocations, want at most 4: an S row per write", n, flips[n])
		}
	}
	if flips[128] != flips[8192] {
		t.Errorf("a pattern-flipping pair makes %v allocations at n=128, %v at n=8192: want the same", flips[128], flips[8192])
	}
}
