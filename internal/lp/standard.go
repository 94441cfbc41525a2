package lp

import (
	"fmt"
	"math"
)

// substKind records how a model variable was rewritten into standard-form
// (nonnegative) columns.
type substKind int

const (
	// substShift: x = lo + u with u >= 0 (finite lower bound).
	substShift substKind = iota
	// substMirror: x = hi - u with u >= 0 (finite upper bound only).
	substMirror
	// substSplit: x = u - w with u, w >= 0 (free variable).
	substSplit
)

type subst struct {
	kind   substKind
	col    int     // primary standard column
	negCol int     // second column for substSplit
	offset float64 // lo for substShift, hi for substMirror
}

// boundRow is an extra "u <= hi-lo" constraint row materializing the upper
// bound of a doubly-bounded variable.
type boundRow struct {
	col int
	ub  float64
}

// standardForm is the canonical problem: minimize cost·x subject to
// A x = b, x >= 0, b >= 0, expressed as a dense tableau ready for the
// simplex method. The solve pivots a and b in place, so after it they hold
// the final tableau, not the problem.
type standardForm struct {
	m, n int // rows, total columns (structural + slack + artificial)

	a    [][]float64 // m rows of n coefficients
	b    []float64   // right-hand sides, >= 0 before the solve
	cost []float64   // phase-2 costs per column

	nStruct int   // structural columns (model variables after substitution)
	artCols []int // artificial column indices
	isArt   []bool

	basis []int // basic column per row

	subs      []subst   // per model variable
	objConst  float64   // constant folded out of the objective
	negate    bool      // objective was negated (Maximize)
	rowOfCons []int     // tableau row for each model constraint (-1 if dropped)
	rowSign   []float64 // +1, or -1 if the row was negated to make b >= 0

	aFlat []float64 // backing array of a (kept for workspace reuse)

	// scratch for buildStandard passes, retained across workspace reuses
	boundRows []boundRow
	rels      []Relation
	adjs      []float64
}

// grow returns buf at length n, reusing its backing array when it is large
// enough; the contents are unspecified. A reallocation leaves an eighth of
// headroom: the models one workspace solves differ by a few columns, and the
// tableau, the largest buffer here, is then allocated once, not once per
// column its models gain.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, n+n/8)
	}
	return buf[:n]
}

// zeroed is grow with every entry zero: a buffer grow makes comes zeroed,
// so only a reused one is cleared.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return grow(buf, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// growMatrix returns an m×n zeroed dense matrix as row headers over one
// flat backing array, reusing the given buffers when large enough.
func growMatrix(rows [][]float64, flat []float64, m, n int) ([][]float64, []float64) {
	flat = zeroed(flat, m*n)
	if cap(rows) < m {
		rows = make([][]float64, m)
	}
	rows = rows[:m]
	for i := 0; i < m; i++ {
		rows[i] = flat[i*n : (i+1)*n]
	}
	return rows, flat
}

// buildStandardInto converts a Model into standard form in sf, reusing
// whatever buffers a previous conversion left there. It returns an error
// only for structurally empty models; bound inconsistencies are rejected
// earlier by AddVar. The numeric results are identical to a fresh
// conversion: every coefficient is written (not accumulated) exactly once,
// and right-hand-side adjustments follow the same term order as before.
func buildStandardInto(mo *Model, sf *standardForm) (*standardForm, error) {
	if len(mo.vars) == 0 {
		return nil, fmt.Errorf("lp: model has no variables")
	}

	// 1. Substitute variables so every structural column is >= 0;
	// doubly-bounded variables get an extra "u <= hi-lo" row.
	sf.subs = grow(sf.subs, len(mo.vars))
	sf.boundRows = sf.boundRows[:0]
	col := 0
	for i, v := range mo.vars {
		switch {
		case !math.IsInf(v.lo, -1):
			sf.subs[i] = subst{kind: substShift, col: col, offset: v.lo}
			if !math.IsInf(v.hi, 1) {
				sf.boundRows = append(sf.boundRows, boundRow{col: col, ub: v.hi - v.lo})
			}
			col++
		case !math.IsInf(v.hi, 1):
			sf.subs[i] = subst{kind: substMirror, col: col, offset: v.hi}
			col++
		default:
			sf.subs[i] = subst{kind: substSplit, col: col, negCol: col + 1}
			col += 2
		}
	}
	sf.nStruct = col

	// 2. First pass over the rows: compute the substitution-adjusted
	// right-hand side, the post-flip relation, and the row sign, which
	// together determine the slack/artificial layout.
	nRows := len(mo.cons) + len(sf.boundRows)
	sf.rels = grow(sf.rels, nRows)
	sf.adjs = zeroed(sf.adjs, nRows)
	sf.rowSign = zeroed(sf.rowSign, nRows)
	sf.rowOfCons = grow(sf.rowOfCons, len(mo.cons))

	for i, c := range mo.cons {
		sf.rowOfCons[i] = i
		adj := c.rhs
		for _, t := range c.terms {
			s := sf.subs[t.Var]
			if s.kind == substShift || s.kind == substMirror {
				adj -= t.Coeff * s.offset
			}
		}
		rel := c.rel
		sign := 1.0
		if adj < 0 {
			sign = -1
			adj = -adj
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		sf.adjs[i], sf.rels[i], sf.rowSign[i] = adj, rel, sign
	}
	for k, br := range sf.boundRows {
		r := len(mo.cons) + k
		// A bound row rhs is hi-lo >= 0 because AddVar enforces lo <= hi,
		// so no sign flip can occur.
		sf.adjs[r], sf.rels[r], sf.rowSign[r] = br.ub, LE, 1
	}

	// 3. Lay out the full column space and fill the matrix.
	nSlack, nArt := 0, 0
	for _, rel := range sf.rels {
		if rel == LE || rel == GE {
			nSlack++
		}
		if rel != LE {
			nArt++
		}
	}
	sf.m = nRows
	sf.n = sf.nStruct + nSlack + nArt
	sf.a, sf.aFlat = growMatrix(sf.a, sf.aFlat, sf.m, sf.n)
	sf.b = zeroed(sf.b, nRows)
	copy(sf.b, sf.adjs)
	sf.cost = zeroed(sf.cost, sf.n)
	sf.isArt = zeroed(sf.isArt, sf.n)
	sf.basis = grow(sf.basis, nRows)
	sf.artCols = sf.artCols[:0]

	for i, c := range mo.cons {
		row := sf.a[i]
		sign := sf.rowSign[i]
		for _, t := range c.terms {
			s := sf.subs[t.Var]
			switch s.kind {
			case substShift:
				row[s.col] = sign * t.Coeff
			case substMirror:
				row[s.col] = sign * -t.Coeff
			case substSplit:
				row[s.col] = sign * t.Coeff
				row[s.negCol] = sign * -t.Coeff
			}
		}
	}
	for k, br := range sf.boundRows {
		sf.a[len(mo.cons)+k][br.col] = 1
	}

	// Phase-2 costs for structural columns.
	negate := mo.sense == Maximize
	sf.negate = negate
	sf.objConst = 0
	for i, v := range mo.vars {
		c := v.obj
		if negate {
			c = -c
		}
		s := sf.subs[i]
		switch s.kind {
		case substShift:
			sf.cost[s.col] += c
			sf.objConst += v.obj * s.offset
		case substMirror:
			sf.cost[s.col] -= c
			sf.objConst += v.obj * s.offset
		case substSplit:
			sf.cost[s.col] += c
			sf.cost[s.negCol] -= c
		}
	}

	slackAt := sf.nStruct
	artAt := sf.nStruct + nSlack
	for r := 0; r < nRows; r++ {
		row := sf.a[r]
		switch sf.rels[r] {
		case LE:
			row[slackAt] = 1
			sf.basis[r] = slackAt
			slackAt++
		case GE:
			row[slackAt] = -1
			slackAt++
			row[artAt] = 1
			sf.isArt[artAt] = true
			sf.artCols = append(sf.artCols, artAt)
			sf.basis[r] = artAt
			artAt++
		case EQ:
			row[artAt] = 1
			sf.isArt[artAt] = true
			sf.artCols = append(sf.artCols, artAt)
			sf.basis[r] = artAt
			artAt++
		}
	}
	return sf, nil
}

// recoverPointInto maps a standard-form column vector back to
// model-variable values, written into out (len(sf.subs)).
func (sf *standardForm) recoverPointInto(out, x []float64) {
	for i, s := range sf.subs {
		switch s.kind {
		case substShift:
			out[i] = s.offset + x[s.col]
		case substMirror:
			out[i] = s.offset - x[s.col]
		case substSplit:
			out[i] = x[s.col] - x[s.negCol]
		}
	}
}
