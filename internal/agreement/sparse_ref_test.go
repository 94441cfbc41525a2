package agreement

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/num"
)

// refBuilder is the row-accumulating SparseBuilder the counted fold
// replaced: two slices per row, a column→position map once a row passes
// 32 entries, and a boxed sort per row at Build. It is kept as the
// reference the fold is held bit-identical to.
type refBuilder struct {
	n    int
	rows []refRow
}

type refRow struct {
	cols []int32
	vals []float64
	idx  map[int32]int32
}

func newRefBuilder(n int) *refBuilder { return &refBuilder{n: n, rows: make([]refRow, n)} }

func (b *refBuilder) Add(i, j int, v float64) {
	r := &b.rows[i]
	jc := int32(j)
	if r.idx != nil {
		if k, ok := r.idx[jc]; ok {
			r.vals[k] += v
			return
		}
	} else {
		for k, c := range r.cols {
			if c == jc {
				r.vals[k] += v
				return
			}
		}
	}
	r.cols = append(r.cols, jc)
	r.vals = append(r.vals, v)
	if r.idx != nil {
		r.idx[jc] = int32(len(r.cols) - 1)
	} else if len(r.cols) > 32 {
		r.idx = make(map[int32]int32, 2*len(r.cols))
		for k, c := range r.cols {
			r.idx[c] = int32(k)
		}
	}
}

func (b *refBuilder) Build() *SparseMatrix {
	m := &SparseMatrix{n: b.n, rowStart: make([]int32, b.n+1)}
	for i := range b.rows {
		r := &b.rows[i]
		sort.Sort(refByCol{r.cols, r.vals})
		for k, c := range r.cols {
			if num.IsZero(r.vals[k]) {
				continue
			}
			m.cols = append(m.cols, c)
			m.vals = append(m.vals, r.vals[k])
		}
		m.rowStart[i+1] = int32(len(m.cols))
	}
	return m
}

type refByCol struct {
	cols []int32
	vals []float64
}

func (r refByCol) Len() int           { return len(r.cols) }
func (r refByCol) Less(i, j int) bool { return r.cols[i] < r.cols[j] }
func (r refByCol) Swap(i, j int) {
	r.cols[i], r.cols[j] = r.cols[j], r.cols[i]
	r.vals[i], r.vals[j] = r.vals[j], r.vals[i]
}

// sameMatrix reports whether two CSR matrices store the same entries, bit
// for bit.
func sameMatrix(a, b *SparseMatrix) bool {
	if a.n != b.n || len(a.cols) != len(b.cols) {
		return false
	}
	for i := range a.rowStart {
		if a.rowStart[i] != b.rowStart[i] {
			return false
		}
	}
	for k := range a.cols {
		if a.cols[k] != b.cols[k] || math.Float64bits(a.vals[k]) != math.Float64bits(b.vals[k]) {
			return false
		}
	}
	return true
}

// TestSparseBuilderMatchesReference holds the counted fold bit-identical
// to the row-accumulating builder it replaced, on random contributions: a
// declared base's entries first, as Base.Fold adds them, then shares on
// repeated (from, to) pairs, in rows long enough to pass the old builder's
// map threshold, with values of mixed magnitude and cells that cancel to
// exactly zero or to −0.
func TestSparseBuilderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		n := 1 + rng.Intn(60)
		base := NewSparseBuilder(n)
		for k := rng.Intn(3 * n); k > 0; k-- {
			base.Add(rng.Intn(n), rng.Intn(n), rng.Float64())
		}
		declared := base.Build()
		got, want := NewSparseBuilder(n), newRefBuilder(n)
		add := func(i, j int, v float64) {
			got.Add(i, j, v)
			want.Add(i, j, v)
		}
		for i := 0; i < n; i++ {
			cols, vals := declared.Row(i)
			for k, c := range cols {
				add(i, int(c), vals[k])
			}
		}
		hub := rng.Intn(n)
		for k := rng.Intn(8 * n); k > 0; k-- {
			i, j := rng.Intn(n), rng.Intn(n)
			if rng.Intn(3) == 0 {
				i = hub // one long row, past the old map threshold
			}
			v := math.Ldexp(rng.Float64(), rng.Intn(40)-20)
			switch rng.Intn(6) {
			case 0: // a share and its revoke: the cell cancels to exactly zero
				add(i, j, v)
				add(i, j, -v)
			case 1: // a cell of −0
				add(i, j, math.Copysign(0, -1))
			default:
				add(i, j, v)
			}
		}
		if g, w := got.Build(), want.Build(); !sameMatrix(g, w) {
			t.Fatalf("iteration %d (n=%d): the fold built\n%v\nthe reference\n%v", iter, n, g.Dense(), w.Dense())
		}
	}
}

// TestSparseBuilderAllocs pins the fold of tree_sharded's shard shape — 2
// 049 principals, a declared base of none and 2 056 shares — at a few dozen
// allocations: the triplet list's amortized growth and Build's four arrays.
func TestSparseBuilderAllocs(t *testing.T) {
	const n = 2049
	allocs := testing.AllocsPerRun(5, func() {
		b := NewSparseBuilder(n)
		for k := 0; k < 2056; k++ {
			b.Add(k%n, (k*7+1)%n, 0.25)
		}
		b.Build()
	})
	if allocs > 40 {
		t.Errorf("folding 2 056 shares over 2 049 principals makes %v allocations, want at most 40", allocs)
	}
}
