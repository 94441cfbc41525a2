package transitive

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
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
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: [%d][%d] = %v, want %v", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestClosureUpdateEdgeMatchesFull drives random edge-update schedules
// and pins the incremental closure bit-for-bit to a from-scratch
// recompute at every step, across populations either side of 64 and
// several levels.
func TestClosureUpdateEdgeMatchesFull(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges int
		level int
	}{
		{"exact-small-full", 8, 14, 7},
		{"exact-small-level2", 8, 14, 2},
		{"exact-big-level4", 80, 160, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			s := randomSparse(rng, tc.n, tc.edges)
			c := newClosure(s, tc.level)
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
				requireBitEqual(t, rowsT(next), flows(s, tc.level), "incremental T")
				// Rows not reported as changed must be the previous rows.
				changedSet := map[int]bool{}
				for _, r := range changed {
					changedSet[r] = true
				}
				for i := 0; i < tc.n; i++ {
					if !changedSet[i] {
						requireBitEqual(t, [][]float64{rowsT(next)[i]}, [][]float64{rowsT(c)[i]}, "unchanged row drifted")
					}
				}
				c = next
			}
		})
	}
}

// TestPatchEdgeMatchesUpdateEdge drives one closure through PatchEdge and
// another through UpdateEdge over the same random edits, on the delta path
// and past the blast-radius threshold, and after each requires both to hold
// NewClosure's rows bit for bit and the same agreement entries, to report
// the same changed rows, and PatchEdge to hand back the columns and the
// values each of those rows held. The patched closure writes the values of
// the rows whose pattern holds in place; a Clone taken before every third
// patch must keep its S and T as they were.
func TestPatchEdgeMatchesUpdateEdge(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges int
		level int
	}{
		{"exact-small-full", 8, 14, 7},
		{"exact-small-level2", 8, 14, 2},
		{"exact-big-level4", 80, 160, 4},
		{"exact-big-full", 70, 90, 69},
	}
	paths := map[string]int{}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(11))
		s := randomSparse(rng, tc.n, tc.edges)
		up, p := newClosure(s, tc.level), newClosure(s, tc.level)
		prevCols, prevVals, prevPtr := make([][]int32, tc.n), make([][]float64, tc.n), make([]*float64, tc.n)
		for step := 0; step < 40; step++ {
			src, dst := rng.Intn(tc.n), rng.Intn(tc.n)
			if src == dst {
				continue
			}
			nv := 0.0
			if rng.Intn(3) > 0 {
				nv = 0.05 + 0.4*rng.Float64()
			}
			ov := s[src][dst]
			sc := getScratch(tc.n)
			path := "delta"
			if blastDenominator*len(p.affected(sc, src)) > tc.n {
				path = "blast"
			}
			sc.put()
			for i := range prevCols {
				cols, vals := p.FlowRow(i)
				prevCols[i], prevVals[i], prevPtr[i] = cols, slices.Clone(vals), nil
				if len(vals) > 0 {
					prevPtr[i] = &vals[0]
				}
			}
			var clone *Closure
			var cloneT, cloneS [][]float64
			if step%3 == 0 {
				clone = p.Clone()
				cloneT, cloneS = rowsT(clone), edgesOf(clone)
			}
			next, changed, err := up.UpdateEdge(src, dst, ov, nv)
			if err != nil {
				t.Fatalf("%s step %d: UpdateEdge(%d,%d,%v,%v): %v", tc.name, step, src, dst, ov, nv, err)
			}
			patched, old, oldVals, err := p.PatchEdge(src, dst, ov, nv, nil, nil, nil)
			if err != nil {
				t.Fatalf("%s step %d: PatchEdge(%d,%d,%v,%v): %v", tc.name, step, src, dst, ov, nv, err)
			}
			s[src][dst] = nv
			label := fmt.Sprintf("%s step %d (%s path)", tc.name, step, path)
			want := rowsT(newClosure(s, tc.level))
			requireBitEqual(t, rowsT(next), want, label+": UpdateEdge")
			requireBitEqual(t, rowsT(p), want, label+": PatchEdge")
			requireBitEqual(t, edgesOf(p), s, label+": PatchEdge's agreement entries")
			if clone != nil {
				requireBitEqual(t, rowsT(clone), cloneT, label+": a Clone taken before the patch")
				requireBitEqual(t, edgesOf(clone), cloneS, label+": the agreement entries of a Clone taken before the patch")
			}
			if !slices.Equal(changed, patched) || len(old) != len(patched) {
				t.Fatalf("%s: UpdateEdge changed rows %v, PatchEdge %v with %d old column lists", label, changed, patched, len(old))
			}
			for x, r := range patched {
				if !slices.Equal(old[x], prevCols[r]) {
					t.Fatalf("%s: row %d held columns %v, PatchEdge handed back %v", label, r, prevCols[r], old[x])
				}
				held := oldVals[:len(old[x])]
				oldVals = oldVals[len(old[x]):]
				requireBitEqual(t, [][]float64{held}, [][]float64{prevVals[r]}, label+": the values PatchEdge handed back")
				if _, vals := p.FlowRow(r); len(vals) > 0 && &vals[0] == prevPtr[r] {
					paths["in place"]++
				}
			}
			if len(oldVals) != 0 {
				t.Fatalf("%s: PatchEdge handed back %d values beyond the rows' columns", label, len(oldVals))
			}
			if ov != nv {
				paths[path]++
			}
			up = next
		}
	}
	t.Logf("edits by path, and rows written in place: %v", paths)
	if paths["delta"] == 0 || paths["blast"] == 0 || paths["in place"] == 0 {
		t.Fatalf("edits by path %v: want both the delta and the blast-radius path, and rows written in place", paths)
	}
}

// TestClosureGrow pins zero-extension growth in place to a full rebuild,
// including where growing raises the clamped level of a full-transitivity
// request.
func TestClosureGrow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 9
	s := randomSparse(rng, n, 22)
	// 1<<20 requests full transitivity at any size, so the clamped level
	// rises as the closure grows.
	grown := newClosure(s, 1<<20)
	grown.Grow(2)
	sg := growRows(s, n+2)
	requireBitEqual(t, rowsT(grown), flows(sg, 1<<20), "grown closure")
	if grown.N() != n+2 {
		t.Fatalf("grown N = %d, want %d", grown.N(), n+2)
	}
	// The grown closure must keep working incrementally: connect a new
	// principal and recheck.
	if _, _, _, err := grown.PatchEdge(n, 0, 0, 0.3, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	sg[n][0] = 0.3
	requireBitEqual(t, rowsT(grown), flows(sg, 1<<20), "update after grow")
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
	c := newClosure(s, 3)
	next, changed, err := c.UpdateEdge(4, 7, s[4][7], 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.affected(getScratch(n), 4)); blastDenominator*got <= n {
		t.Fatalf("test graph too sparse: affected=%d of n=%d does not trip the fallback", got, n)
	}
	s[4][7] = 0.9
	requireBitEqual(t, rowsT(next), flows(s, 3), "fallback T")
	changedSet := map[int]bool{}
	for _, r := range changed {
		changedSet[r] = true
	}
	for i := 0; i < n; i++ {
		same := true
		for j := 0; j < n; j++ {
			if rowsT(next)[i][j] != rowsT(c)[i][j] {
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
// leave them in place and out of the report.
func TestClosureBlastFallbackSharesUnchangedRows(t *testing.T) {
	const n = 10
	s := zeros(n)
	for i := 0; i < 6; i++ { // 0→1→…→6: rows 0..5 reach the edge out of 5
		s[i][i+1] = 0.5
	}
	s[7][8], s[8][9], s[9][7] = 0.3, 0.3, 0.3 // a ring that never reaches it
	c := newClosure(s, n-1)
	if got := len(c.affected(getScratch(n), 5)); blastDenominator*got <= n {
		t.Fatalf("affected=%d of n=%d does not trip the fallback", got, n)
	}
	held := make([]sparseRow, n)
	copy(held, c.t)
	changed, _, _, err := c.PatchEdge(5, 6, 0.5, 0.25, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s[5][6] = 0.25
	requireBitEqual(t, rowsT(c), flows(s, n-1), "fallback T")
	if want := []int{0, 1, 2, 3, 4, 5}; !slices.Equal(changed, want) {
		t.Fatalf("changed rows %v, want %v", changed, want)
	}
	for _, r := range []int{7, 8, 9} {
		nc, nv := c.FlowRow(r)
		if &nc[0] != &held[r].cols[0] || &nv[0] != &held[r].vals[0] {
			t.Fatalf("row %d was recomputed to the same values but no longer holds its slices", r)
		}
	}
}

// TestClosureRowsAreExactSize pins the emit contract of the row kernels
// on a small and a large population: ascending
// columns, no stored zero, no spare capacity, nil for an empty row — and
// the same kernels run on one worker and scattered dense hold the same
// entries.
func TestClosureRowsAreExactSize(t *testing.T) {
	for _, n := range []int{12, 90} {
		rng := rand.New(rand.NewSource(int64(n)))
		s := randomSparse(rng, n, 2*n)
		c := newClosure(s, 4)
		dense := workersT(s, 4, 1)
		requireBitEqual(t, rowsT(c), dense, "the kernels on one worker")
		for i := 0; i < n; i++ {
			cols, vals := c.FlowRow(i)
			if len(cols) == 0 && (cols != nil || vals != nil) {
				t.Fatalf("n=%d: empty row %d is not nil", n, i)
			}
			if cap(cols) != len(cols) || cap(vals) != len(vals) || len(cols) != len(vals) {
				t.Fatalf("n=%d: row %d has len/cap %d/%d cols, %d/%d vals", n, i, len(cols), cap(cols), len(vals), cap(vals))
			}
			stored := 0
			for x, j := range cols {
				if x > 0 && cols[x-1] >= j {
					t.Fatalf("n=%d: row %d columns not ascending: %v", n, i, cols)
				}
				if vals[x] == 0 {
					t.Fatalf("n=%d: row %d stores a zero at column %d", n, i, j)
				}
				stored++
			}
			for _, v := range dense[i] {
				if v != 0 {
					stored--
				}
			}
			if stored != 0 {
				t.Fatalf("n=%d: row %d stores a different entry count than the kernels hold", n, i)
			}
		}
	}
}

// TestClosureUpdateEdgeErrors covers PatchEdge's validation and staleness
// errors, and the no-op path.
func TestClosureUpdateEdgeErrors(t *testing.T) {
	s := [][]float64{
		{0, 0.5},
		{0, 0},
	}
	c := newClosure(s, 1)
	for _, e := range []struct {
		what           string
		src, dst       int
		oldVal, newVal float64
	}{
		{"out-of-range dst", 0, 2, 0, 0.1},
		{"diagonal update", 1, 1, 0, 0.1},
		{"negative value", 0, 1, 0.5, -0.1},
		{"stale old value", 0, 1, 0.4, 0.6},
	} {
		if _, _, _, err := c.PatchEdge(e.src, e.dst, e.oldVal, e.newVal, nil, nil, nil); err == nil {
			t.Fatalf("%s accepted", e.what)
		}
	}
	before := rowsT(c)
	changed, old, vals, err := c.PatchEdge(0, 1, 0.5, 0.5, nil, nil, nil)
	if err != nil || changed != nil || old != nil || vals != nil {
		t.Fatalf("no-op update: changed=%v old=%v vals=%v err=%v, want nothing", changed, old, vals, err)
	}
	requireBitEqual(t, rowsT(c), before, "T after a no-op update")
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
	c := newClosure(s, n-1).WithBudget(50)
	_, _, err := c.UpdateEdge(0, 1, 0.1, 0.2)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("dense update under budget 50: err = %v, want ErrBudget", err)
	}
	// The receiver is untouched and still answers queries.
	if c.Edge(0, 1) != 0.1 {
		t.Fatalf("receiver mutated by refused update: edge = %v", c.Edge(0, 1))
	}
	// Lifting the budget lets the same mutation through.
	d, _, err := c.WithBudget(0).UpdateEdge(0, 1, 0.1, 0.2)
	if err != nil {
		t.Fatalf("unbounded update: %v", err)
	}
	s[0][1] = 0.2
	want := newClosure(s, n-1)
	requireBitEqual(t, rowsT(d), rowsT(want), "post-budget-lift closure")

	// A sparse graph with a generous budget must not trip.
	rng := rand.New(rand.NewSource(3))
	sp := randomSparse(rng, 12, 18)
	cs := newClosure(sp, 4).WithBudget(1_000_000)
	if _, _, err := cs.UpdateEdge(1, 2, sp[1][2], 0.3); err != nil {
		t.Fatalf("sparse update under ample budget: %v", err)
	}
}
