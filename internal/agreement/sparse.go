package agreement

import (
	"fmt"
	"sort"

	"repro/internal/num"
)

// SparseMatrix is a CSR (compressed sparse row) matrix over principals:
// row i's non-zero columns and values sit in cols/vals between
// rowStart[i] and rowStart[i+1], columns sorted ascending. Structural
// zeros (entries whose accumulated value is exactly 0, the num.IsZero
// predicate) are not stored; consumers that skip IsZero entries see the
// identical value stream in the identical order as a dense scan, so the
// sparse and dense forms are interchangeable bit-for-bit.
type SparseMatrix struct {
	n        int
	rowStart []int32
	cols     []int32
	vals     []float64
}

// N returns the matrix dimension (principal count).
func (m *SparseMatrix) N() int { return m.n }

// NNZ returns the number of stored (non-zero) entries.
func (m *SparseMatrix) NNZ() int { return len(m.cols) }

// Row returns row i's ascending column indices and their values. The
// slices alias the matrix's storage and must not be mutated.
func (m *SparseMatrix) Row(i int) ([]int32, []float64) {
	lo, hi := m.rowStart[i], m.rowStart[i+1]
	return m.cols[lo:hi], m.vals[lo:hi]
}

// At returns the (i, j) entry, 0 when unstored. Binary search over the
// sorted row: O(log nnz(i)).
func (m *SparseMatrix) At(i, j int) float64 {
	cols, vals := m.Row(i)
	k := sort.Search(len(cols), func(k int) bool { return cols[k] >= int32(j) })
	if k < len(cols) && cols[k] == int32(j) {
		return vals[k]
	}
	return 0
}

// SparseOf imports a dense square matrix, the one conversion from dense
// input: row by row, the entries that are not exactly zero (num.IsZero,
// so −0 too) in ascending column order. A nil matrix gives nil — no
// matrix, as a nil A means "no absolute agreements" — and a non-square
// one is refused. Dense round-trips it bit for bit.
func SparseOf(m [][]float64) (*SparseMatrix, error) {
	if m == nil {
		return nil, nil
	}
	n := len(m)
	out := &SparseMatrix{n: n, rowStart: make([]int32, n+1)}
	for i, row := range m {
		if len(row) != n {
			return nil, fmt.Errorf("agreement: matrix is not square: row %d has %d entries, want %d", i, len(row), n)
		}
		for j, v := range row {
			if !num.IsZero(v) {
				out.cols, out.vals = append(out.cols, int32(j)), append(out.vals, v)
			}
		}
		out.rowStart[i+1] = int32(len(out.cols))
	}
	return out, nil
}

// Dense materializes the full n×n matrix, for tests and the benchmark.
// Unstored entries come out as +0.
func (m *SparseMatrix) Dense() [][]float64 {
	out := make([][]float64, m.n)
	for i := 0; i < m.n; i++ {
		out[i] = make([]float64, m.n)
		cols, vals := m.Row(i)
		for k, c := range cols {
			out[i][c] = vals[k]
		}
	}
	return out
}

// SparseBuilder accumulates (row, col, value) contributions into a
// SparseMatrix. Repeated Add calls on the same cell sum in call order —
// the same per-cell accumulation sequence a dense `m[i][j] += v` loop
// performs, which is what keeps the sparse build bit-identical to the
// dense one.
type SparseBuilder struct {
	n    int
	rows []sparseRowAcc
}

type sparseRowAcc struct {
	cols []int32
	vals []float64
	idx  map[int32]int32 // col → position, allocated once the row grows past linear-scan size
}

// builderMapThreshold is the per-row entry count past which Add switches
// from linear scan to a column→index map.
const builderMapThreshold = 32

// NewSparseBuilder returns a builder for an n×n matrix.
func NewSparseBuilder(n int) *SparseBuilder {
	return &SparseBuilder{n: n, rows: make([]sparseRowAcc, n)}
}

// Add accumulates v into cell (i, j).
func (b *SparseBuilder) Add(i, j int, v float64) {
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
	} else if len(r.cols) > builderMapThreshold {
		r.idx = make(map[int32]int32, 2*len(r.cols))
		for k, c := range r.cols {
			r.idx[c] = int32(k)
		}
	}
}

// Build sorts each row by column, drops entries whose accumulated value
// is exactly zero, and freezes the result as a CSR matrix.
func (b *SparseBuilder) Build() *SparseMatrix {
	m := &SparseMatrix{n: b.n, rowStart: make([]int32, b.n+1)}
	for i := range b.rows {
		r := &b.rows[i]
		sort.Sort(rowByCol{r.cols, r.vals})
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

type rowByCol struct {
	cols []int32
	vals []float64
}

func (r rowByCol) Len() int           { return len(r.cols) }
func (r rowByCol) Less(i, j int) bool { return r.cols[i] < r.cols[j] }
func (r rowByCol) Swap(i, j int) {
	r.cols[i], r.cols[j] = r.cols[j], r.cols[i]
	r.vals[i], r.vals[j] = r.vals[j], r.vals[i]
}

// SparseMatrices is the principal-level model of one resource type:
// capacities V stay dense (O(n)), the relative and absolute agreement
// matrices are CSR.
type SparseMatrices struct {
	Type ResourceType
	V    []float64
	S    *SparseMatrix
	A    *SparseMatrix
}
