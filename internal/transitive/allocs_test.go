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
// head already reaches, moves the S row to its arena's tail once, with
// headroom; from then on such a share grows the row into that headroom and
// its revoke shrinks it, in place, and the T row is written over, while the
// affected set, its seen set and the budget meter cost nothing: that pair
// allocates nothing either, in a population of 128 and of 8 192.
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
		var delta Delta
		pair := func(to int) func() {
			return func() {
				for _, step := range [][2]float64{{0, 0.005}, {0.005, 0}} {
					x := c.Edge(0, to) - step[0]
					if err = c.PatchEdge(0, to, x+step[0], x+step[1], &delta); err != nil || len(delta.Rows) != 1 {
						t.Fatalf("PatchEdge(0, %d): rows %v, err %v; want one changed row", to, delta.Rows, err)
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
		if flips[n] != 0 {
			t.Errorf("n=%d: a pattern-flipping share and revoke make %v allocations, want 0: the S row flips in place", n, flips[n])
		}
	}
}

// TestClosureBuildAllocs pins a warm rebuild of the exact closure of a
// complete graph of 10 (the paper's ISPs) and of 14, as the server builds
// it: every row is summed by the subset DP, whose table, weights and
// neighbour sets live in the pooled scratch, so a build allocates the
// closure it returns and the build's bookkeeping, and nothing a row.
// AllocsPerRun measures on one P, so one worker: 15 objects, where the
// benchmarks' two workers read 19.
func TestClosureBuildAllocs(t *testing.T) {
	const most = 15
	for _, n := range []int{10, 14} {
		m := sparseOf(benchMatrix(n, 1))
		build := func() {
			if _, err := NewClosureBudget(m, n-1, 50_000_000); err != nil {
				t.Fatal(err)
			}
		}
		build()
		got := testing.AllocsPerRun(20, build)
		t.Logf("K%d: a warm closure build makes %v allocations", n, got)
		if got > most {
			t.Errorf("K%d: a warm closure build makes %v allocations, want at most %d", n, got, most)
		}
	}
}
