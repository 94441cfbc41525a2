package transitive

import (
	"errors"
	"math/rand"
	"testing"
)

// randomSparse builds a random valid agreement matrix with roughly
// `edges` non-zero entries.
func randomSparse(rng *rand.Rand, n, edges int) [][]float64 {
	s := zeros(n)
	for e := 0; e < edges; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		s[i][j] = 0.05 + 0.4*rng.Float64()
	}
	return s
}

// growRows copies an n×n matrix into nn×nn, zero-extending every row and
// adding zero rows.
func growRows(m [][]float64, nn int) [][]float64 {
	out := zeros(nn)
	for i := range m {
		copy(out[i], m[i])
	}
	return out
}

// requireBitEqual fails unless got and want hold identical values in
// every entry.
func requireBitEqual(t *testing.T, got, want [][]float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] { //lint:ignore sharingvet/floateq the test pins bit-identical results
				t.Fatalf("%s: [%d][%d] = %v, want %v", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestClosureUpdateEdgeMatchesFull drives random edge-update schedules
// and pins the incremental closure bit-for-bit to a from-scratch
// recompute at every step, across both kernels (exact, approx), both row
// variants (n <= 64 bitmask, n > 64 big fallback), and several levels.
func TestClosureUpdateEdgeMatchesFull(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		edges  int
		level  int
		approx bool
	}{
		{"exact-small-full", 8, 14, 7, false},
		{"exact-small-level2", 8, 14, 2, false},
		{"exact-big-level4", 80, 160, 4, false},
		{"approx-small-full", 10, 25, 9, true},
		{"approx-big-level6", 70, 200, 6, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			s := randomSparse(rng, tc.n, tc.edges)
			c := NewClosure(s, tc.level, tc.approx)
			for step := 0; step < 40; step++ {
				src, dst := rng.Intn(tc.n), rng.Intn(tc.n)
				if src == dst {
					continue
				}
				var nv float64
				switch rng.Intn(3) {
				case 0: // clear the edge
					nv = 0
				default:
					nv = 0.05 + 0.4*rng.Float64()
				}
				ov := s[src][dst]
				next, changed, err := c.UpdateEdge(src, dst, ov, nv)
				if err != nil {
					t.Fatalf("step %d: UpdateEdge(%d,%d,%v,%v): %v", step, src, dst, ov, nv, err)
				}
				s[src][dst] = nv
				var want [][]float64
				if tc.approx {
					want = Approx(s, tc.level)
				} else {
					want = Exact(s, tc.level)
				}
				requireBitEqual(t, next.T(), want, "incremental T")
				// Rows not reported as changed must be the previous rows.
				changedSet := map[int]bool{}
				for _, r := range changed {
					changedSet[r] = true
				}
				for i := 0; i < tc.n; i++ {
					if !changedSet[i] {
						requireBitEqual(t, [][]float64{next.T()[i]}, [][]float64{c.T()[i]}, "unchanged row drifted")
					}
				}
				c = next
			}
		})
	}
}

// TestClosureUpdateRowMatchesFull replaces whole rows and pins the
// result to the full recompute.
func TestClosureUpdateRowMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 12
	s := randomSparse(rng, n, 30)
	c := NewClosure(s, n-1, false)
	for step := 0; step < 20; step++ {
		src := rng.Intn(n)
		row := make([]float64, n)
		for j := range row {
			if j != src && rng.Intn(3) == 0 {
				row[j] = 0.05 + 0.4*rng.Float64()
			}
		}
		next, _, err := c.UpdateRow(src, row)
		if err != nil {
			t.Fatalf("step %d: UpdateRow(%d): %v", step, src, err)
		}
		copy(s[src], row)
		requireBitEqual(t, next.T(), Exact(s, n-1), "incremental T after UpdateRow")
		c = next
	}
}

// TestClosureCOW checks that mutation leaves the receiver's matrix
// intact — the property the server's snapshot-solve concurrency needs.
func TestClosureCOW(t *testing.T) {
	s := [][]float64{
		{0, 0.5, 0},
		{0, 0, 0.5},
		{0, 0, 0},
	}
	c := NewClosure(s, 2, false)
	before := Exact(s, 2)
	next, changed, err := c.UpdateEdge(0, 1, 0.5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) == 0 {
		t.Fatal("expected changed rows")
	}
	requireBitEqual(t, c.T(), before, "receiver mutated by UpdateEdge")
	s[0][1] = 0.9
	requireBitEqual(t, next.T(), Exact(s, 2), "derived closure")
}

// TestClosureGrow pins zero-extension growth to a full rebuild, for both
// kernels, including the approx case where growing raises the clamped
// level of a full-transitivity request.
func TestClosureGrow(t *testing.T) {
	for _, approx := range []bool{false, true} {
		rng := rand.New(rand.NewSource(5))
		n := 9
		s := randomSparse(rng, n, 22)
		// 1<<20 requests full transitivity at any size, so the clamped
		// level rises as the closure grows.
		c := NewClosure(s, 1<<20, approx)
		grown := c.Grow(2)
		sg := growRows(s, n+2)
		var want [][]float64
		if approx {
			want = Approx(sg, 1<<20)
		} else {
			want = Exact(sg, 1<<20)
		}
		requireBitEqual(t, grown.T(), want, "grown closure")
		if grown.N() != n+2 {
			t.Fatalf("grown N = %d, want %d", grown.N(), n+2)
		}
		// The grown closure must keep working incrementally: connect a new
		// principal and recheck.
		next, _, err := grown.UpdateEdge(n, 0, 0, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		sg[n][0] = 0.3
		if approx {
			want = Approx(sg, 1<<20)
		} else {
			want = Exact(sg, 1<<20)
		}
		requireBitEqual(t, next.T(), want, "update after grow")
	}
}

// TestClosureBlastFallback forces the full-recompute fallback (a hub
// edge on a dense graph affects every row) and checks it still lands on
// the exact result with accurate changed-row reporting.
func TestClosureBlastFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 10
	s := zeros(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				s[i][j] = 0.02 + 0.05*rng.Float64()
			}
		}
	}
	c := NewClosure(s, 3, false)
	next, changed, err := c.UpdateEdge(4, 7, s[4][7], 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.affected(4)); blastDenominator*got <= n {
		t.Fatalf("test graph too sparse: affected=%d of n=%d does not trip the fallback", got, n)
	}
	s[4][7] = 0.9
	requireBitEqual(t, next.T(), Exact(s, 3), "fallback T")
	changedSet := map[int]bool{}
	for _, r := range changed {
		changedSet[r] = true
	}
	for i := 0; i < n; i++ {
		same := true
		for j := 0; j < n; j++ {
			if next.T()[i][j] != c.T()[i][j] { //lint:ignore sharingvet/floateq bit-level row diff
				same = false
			}
		}
		if same == changedSet[i] {
			t.Fatalf("row %d: changed reporting wrong (same=%v, reported=%v)", i, same, changedSet[i])
		}
	}
}

// TestClosureBlastFallbackSharesUnchangedRows trips the fallback on a
// graph where part of the population cannot reach the edited edge: the
// full rebuild recomputes those rows too, finds them identical, and must
// hand back the receiver's own slices and leave them out of the report.
func TestClosureBlastFallbackSharesUnchangedRows(t *testing.T) {
	const n = 10
	s := zeros(n)
	for i := 0; i < 6; i++ { // 0→1→…→6: rows 0..5 reach the edge out of 5
		s[i][i+1] = 0.5
	}
	s[7][8], s[8][9], s[9][7] = 0.3, 0.3, 0.3 // a ring that never reaches it
	c := NewClosure(s, n-1, false)
	if got := len(c.affected(5)); blastDenominator*got <= n {
		t.Fatalf("affected=%d of n=%d does not trip the fallback", got, n)
	}
	next, changed, err := c.UpdateEdge(5, 6, 0.5, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	s[5][6] = 0.25
	requireBitEqual(t, next.T(), Exact(s, n-1), "fallback T")
	want := []int{0, 1, 2, 3, 4, 5}
	if len(changed) != len(want) {
		t.Fatalf("changed rows %v, want %v", changed, want)
	}
	for x, r := range want {
		if changed[x] != r {
			t.Fatalf("changed rows %v, want %v", changed, want)
		}
	}
	for _, r := range []int{7, 8, 9} {
		nc, nv := next.FlowRow(r)
		oc, ov := c.FlowRow(r)
		if &nc[0] != &oc[0] || &nv[0] != &ov[0] {
			t.Fatalf("row %d was recomputed to the same values but no longer shares the receiver's slices", r)
		}
	}
	for _, r := range want {
		nc, _ := next.FlowRow(r)
		oc, _ := c.FlowRow(r)
		if &nc[0] == &oc[0] {
			t.Fatalf("changed row %d still shares the receiver's slices", r)
		}
	}
}

// TestClosureRowsAreExactSize pins the emit contract of the row kernels
// on both variants (n <= 64 bitmask, n > 64 scratch stacks) and both
// closures: ascending columns, no stored zero, no spare capacity, nil for
// an empty row — and the dense export of the same kernel (ExactCSR,
// ApproxCSR) holds the same entries.
func TestClosureRowsAreExactSize(t *testing.T) {
	for _, n := range []int{12, 90} {
		for _, approx := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(n)))
			s := randomSparse(rng, n, 2*n)
			c := NewClosure(s, 4, approx)
			adj, vals, _ := adjacency(s)
			dense := ExactCSR(n, adj, vals, 4)
			if approx {
				dense = ApproxCSR(n, adj, vals, 4)
			}
			requireBitEqual(t, c.T(), dense, "dense export of the sparse kernel")
			for i := 0; i < n; i++ {
				cols, vals := c.FlowRow(i)
				if len(cols) == 0 && (cols != nil || vals != nil) {
					t.Fatalf("n=%d approx=%v: empty row %d is not nil", n, approx, i)
				}
				if cap(cols) != len(cols) || cap(vals) != len(vals) || len(cols) != len(vals) {
					t.Fatalf("n=%d approx=%v: row %d has len/cap %d/%d cols, %d/%d vals", n, approx, i, len(cols), cap(cols), len(vals), cap(vals))
				}
				stored := 0
				for x, j := range cols {
					if x > 0 && cols[x-1] >= j {
						t.Fatalf("n=%d approx=%v: row %d columns not ascending: %v", n, approx, i, cols)
					}
					if vals[x] == 0 { //lint:ignore sharingvet/floateq rows store no exact zero
						t.Fatalf("n=%d approx=%v: row %d stores a zero at column %d", n, approx, i, j)
					}
					stored++
				}
				for _, v := range dense[i] {
					if v != 0 { //lint:ignore sharingvet/floateq counting exact non-zeros
						stored--
					}
				}
				if stored != 0 {
					t.Fatalf("n=%d approx=%v: row %d stores a different entry count than its dense export holds", n, approx, i)
				}
			}
		}
	}
}

// TestClosureUpdateEdgeErrors covers the validation and staleness
// errors, and the no-op path.
func TestClosureUpdateEdgeErrors(t *testing.T) {
	s := [][]float64{
		{0, 0.5},
		{0, 0},
	}
	c := NewClosure(s, 1, false)
	if _, _, err := c.UpdateEdge(0, 2, 0, 0.1); err == nil {
		t.Fatal("out-of-range dst accepted")
	}
	if _, _, err := c.UpdateEdge(1, 1, 0, 0.1); err == nil {
		t.Fatal("diagonal update accepted")
	}
	if _, _, err := c.UpdateEdge(0, 1, 0.5, -0.1); err == nil {
		t.Fatal("negative value accepted")
	}
	if _, _, err := c.UpdateEdge(0, 1, 0.4, 0.6); err == nil {
		t.Fatal("stale old value accepted")
	}
	next, changed, err := c.UpdateEdge(0, 1, 0.5, 0.5)
	if err != nil || next != c || changed != nil {
		t.Fatalf("no-op update: next=%p changed=%v err=%v, want receiver back", next, changed, err)
	}
	if _, _, err := c.UpdateRow(0, []float64{0.1, 0}); err == nil {
		t.Fatal("non-zero diagonal row accepted")
	}
	if _, _, err := c.UpdateRow(0, []float64{0}); err == nil {
		t.Fatal("short row accepted")
	}
}

// TestClosureBudget pins the ErrBudget refusal: a dense exact closure
// with a tiny step budget must refuse edge updates before recomputing,
// leaving the receiver usable, and accept them again once the budget is
// lifted.
func TestClosureBudget(t *testing.T) {
	const n = 9
	s := zeros(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				s[i][j] = 0.1
			}
		}
	}
	c := NewClosure(s, n-1, false).WithBudget(50)
	_, _, err := c.UpdateEdge(0, 1, 0.1, 0.2)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("dense update under budget 50: err = %v, want ErrBudget", err)
	}
	// The receiver is untouched and still answers queries.
	if c.Edge(0, 1) != 0.1 { //lint:ignore sharingvet/floateq exact state check
		t.Fatalf("receiver mutated by refused update: edge = %v", c.Edge(0, 1))
	}
	// Lifting the budget lets the same mutation through.
	d, _, err := c.WithBudget(0).UpdateEdge(0, 1, 0.1, 0.2)
	if err != nil {
		t.Fatalf("unbounded update: %v", err)
	}
	want := NewClosure(d.DenseS(), n-1, false)
	requireBitEqual(t, d.T(), want.T(), "post-budget-lift closure")

	// A sparse graph with a generous budget must not trip.
	rng := rand.New(rand.NewSource(3))
	sp := randomSparse(rng, 12, 18)
	cs := NewClosure(sp, 4, false).WithBudget(1_000_000)
	if _, _, err := cs.UpdateEdge(1, 2, sp[1][2], 0.3); err != nil {
		t.Fatalf("sparse update under ample budget: %v", err)
	}
}
