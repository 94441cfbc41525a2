package agreement

import (
	"cmp"
	"fmt"
	"slices"
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
// dense one. It keeps the contributions as one list of triplets and folds
// them in one counted pass at Build.
type SparseBuilder struct {
	n     int
	cells []cell
}

// cell is one Add: v for the entry (row, col).
type cell struct {
	row, col int32
	v        float64
}

// NewSparseBuilder returns a builder for an n×n matrix.
func NewSparseBuilder(n int) *SparseBuilder {
	return &SparseBuilder{n: n}
}

// Add accumulates v into cell (i, j).
func (b *SparseBuilder) Add(i, j int, v float64) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("agreement: SparseBuilder.Add: row %d out of range [0,%d)", i, b.n))
	}
	b.cells = append(b.cells, cell{row: int32(i), col: int32(j), v: v})
}

// Build folds the contributions into a CSR matrix: it counting-sorts them
// by row, sorts each row stably by column, so a cell's contributions stay
// in Add order, sums each cell's run in that order, drops the sums that
// are exactly zero, and copies the rest out at exact size. The builder is
// left as it was.
func (b *SparseBuilder) Build() *SparseMatrix {
	n := b.n
	m := &SparseMatrix{n: n, rowStart: make([]int32, n+1)}
	start := m.rowStart
	for _, c := range b.cells {
		start[c.row+1]++
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	// Place each cell at its row's cursor, start[row], which ends at the
	// next row's start; shifting the cursors back restores the starts.
	byRow := make([]cell, len(b.cells))
	for _, c := range b.cells {
		byRow[start[c.row]] = c
		start[c.row]++
	}
	copy(start[1:], start[:n])
	start[0] = 0
	// Sum each row's runs of one column over the row's own front.
	kept := 0
	for i := 0; i < n; i++ {
		row := byRow[start[i]:start[i+1]]
		slices.SortStableFunc(row, func(x, y cell) int { return cmp.Compare(x.col, y.col) })
		start[i] = int32(kept)
		for k := 0; k < len(row); {
			c := row[k]
			for k++; k < len(row) && row[k].col == c.col; k++ {
				c.v += row[k].v
			}
			if !num.IsZero(c.v) {
				byRow[kept] = c
				kept++
			}
		}
	}
	start[n] = int32(kept)
	m.cols, m.vals = make([]int32, kept), make([]float64, kept)
	for k, c := range byRow[:kept] {
		m.cols[k], m.vals[k] = c.col, c.v
	}
	return m
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
