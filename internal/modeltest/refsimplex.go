package modeltest

import (
	"fmt"
	"math"

	"repro/internal/lp"
	"repro/internal/num"
)

// RefSolve is the oracle's reference LP solver: a two-phase revised simplex
// with implicit variable bounds. Instead of materializing every "x <= hi" as
// a constraint row (what lp's tableau does), nonbasic variables rest at
// either bound and the ratio test handles bound flips, and the basis inverse
// is refactorized every 64 pivots. It reads the model through lp's exported
// API only and shares no code with lp's solver — its own standard form,
// substitutions and tolerances — so a bug in the served tableau is not also
// a bug here. Failures wrap lp.ErrInfeasible, lp.ErrUnbounded or
// lp.ErrIterationLimit.
func RefSolve(m *lp.Model) (*RefSolution, error) {
	bf, err := buildBounded(m)
	if err != nil {
		return nil, err
	}
	s := newBoundedSolver(bf)
	maxPivots := 200 + 60*(bf.m+bf.n)

	if len(bf.artCols) > 0 {
		phase1 := make([]float64, bf.n)
		for _, j := range bf.artCols {
			phase1[j] = 1
		}
		if s.iterate(phase1, maxPivots) == lp.IterationLimit {
			return nil, fmt.Errorf("%w (bounded phase 1 after %d pivots)", lp.ErrIterationLimit, s.pivots)
		}
		if s.objective(phase1) > feasTol*float64(1+bf.m) {
			return nil, fmt.Errorf("%w (artificial residual %g)", lp.ErrInfeasible, s.objective(phase1))
		}
		s.driveOutArtificials()
		for j, art := range bf.isArt {
			if art {
				s.banned[j] = true
			}
		}
	}

	switch s.iterate(bf.cost, maxPivots) {
	case lp.Unbounded:
		return nil, fmt.Errorf("%w (bounded, after %d pivots)", lp.ErrUnbounded, s.pivots)
	case lp.IterationLimit:
		return nil, fmt.Errorf("%w (bounded phase 2 after %d pivots)", lp.ErrIterationLimit, s.pivots)
	}

	x := make([]float64, bf.n)
	for j := 0; j < bf.n; j++ {
		if !s.inBase[j] && s.atUpper[j] {
			x[j] = bf.ub[j]
		}
	}
	xb := s.basicValues()
	for i, bc := range s.basis {
		v := xb[i]
		if v < 0 {
			v = 0
		}
		x[bc] = v
	}
	sol := &RefSolution{Values: bf.recoverPoint(x), Duals: make([]float64, len(bf.rowOfCons)), Pivots: s.pivots}
	sol.Objective = m.Eval(sol.Values)

	y := s.dualVector(bf.cost)
	for ci, row := range bf.rowOfCons {
		d := y[row] * bf.rowSign[row]
		if bf.negate {
			d = -d
		}
		sol.Duals[ci] = d
	}
	return sol, nil
}

// RefSolution is RefSolve's optimum.
type RefSolution struct {
	// Values holds one entry per model variable, indexed by lp.VarID.
	Values []float64
	// Objective is the optimum in the model's own sense.
	Objective float64
	// Duals holds one shadow price per constraint row, with lp.Solution's
	// sign convention.
	Duals []float64
	// Pivots counts basis exchanges and bound flips across both phases.
	Pivots int
}

const (
	// pivotTol is the smallest acceptable pivot element magnitude.
	pivotTol = 1e-9
	// feasTol is the feasibility / optimality tolerance.
	feasTol = 1e-7
	// stallLimit is the number of non-improving pivots tolerated before
	// the solver switches from Dantzig to Bland's anti-cycling rule.
	stallLimit = 64
)

// substKind records how a model variable was rewritten into nonnegative
// columns.
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
	col    int     // primary column
	negCol int     // second column for substSplit
	offset float64 // lo for substShift, hi for substMirror
}

// boundedForm is the bounds-aware standard form: min cost·x subject to
// A x = b with 0 <= x_j <= ub_j (ub may be +inf). It carries no bound rows.
type boundedForm struct {
	m, n    int
	a       [][]float64
	b       []float64
	cost    []float64
	ub      []float64
	nStruct int
	artCols []int
	isArt   []bool
	basis   []int

	subs      []subst
	negate    bool
	rowOfCons []int
	rowSign   []float64
}

// buildBounded converts a Model into the bounds-aware form: variables are
// shifted, mirrored or split to be nonnegative, and finite upper bounds
// become column bounds instead of extra rows.
func buildBounded(m *lp.Model) (*boundedForm, error) {
	nVars := m.NumVars()
	if nVars == 0 {
		return nil, fmt.Errorf("reference simplex: model has no variables")
	}
	bf := &boundedForm{subs: make([]subst, nVars)}

	col := 0
	var ubs []float64
	for i := range bf.subs {
		lo, hi := m.Bounds(lp.VarID(i))
		switch {
		case !math.IsInf(lo, -1):
			bf.subs[i] = subst{kind: substShift, col: col, offset: lo}
			ubs = append(ubs, hi-lo) // +inf stays +inf
			col++
		case !math.IsInf(hi, 1):
			bf.subs[i] = subst{kind: substMirror, col: col, offset: hi}
			ubs = append(ubs, math.Inf(1))
			col++
		default:
			bf.subs[i] = subst{kind: substSplit, col: col, negCol: col + 1}
			ubs = append(ubs, math.Inf(1), math.Inf(1))
			col += 2
		}
	}
	bf.nStruct = col

	nRows := m.NumConstraints()
	rows := make([][]float64, nRows)
	rhs := make([]float64, nRows)
	rels := make([]lp.Relation, nRows)
	bf.rowSign = make([]float64, nRows)
	bf.rowOfCons = make([]int, nRows)

	for r := range rows {
		terms, rel, adj := m.Constraint(r)
		bf.rowOfCons[r] = r
		row := make([]float64, bf.nStruct)
		for _, t := range terms {
			s := bf.subs[t.Var]
			switch s.kind {
			case substShift:
				row[s.col] += t.Coeff
				adj -= t.Coeff * s.offset
			case substMirror:
				row[s.col] -= t.Coeff
				adj -= t.Coeff * s.offset
			case substSplit:
				row[s.col] += t.Coeff
				row[s.negCol] -= t.Coeff
			}
		}
		sign := 1.0
		if adj < 0 {
			sign = -1
			adj = -adj
			for j := range row {
				row[j] = -row[j]
			}
			switch rel {
			case lp.LE:
				rel = lp.GE
			case lp.GE:
				rel = lp.LE
			}
		}
		rows[r], rhs[r], rels[r] = row, adj, rel
		bf.rowSign[r] = sign
	}

	nSlack, nArt := 0, 0
	for _, rel := range rels {
		if rel == lp.LE || rel == lp.GE {
			nSlack++
		}
		if rel != lp.LE {
			nArt++
		}
	}
	bf.m = nRows
	bf.n = bf.nStruct + nSlack + nArt
	bf.a = make([][]float64, nRows)
	bf.b = rhs
	bf.cost = make([]float64, bf.n)
	bf.isArt = make([]bool, bf.n)
	bf.basis = make([]int, nRows)
	bf.ub = make([]float64, bf.n)
	copy(bf.ub, ubs)
	for j := bf.nStruct; j < bf.n; j++ {
		bf.ub[j] = math.Inf(1)
	}

	bf.negate = m.Sense() == lp.Maximize
	for i, s := range bf.subs {
		c := m.ObjCoeff(lp.VarID(i))
		if bf.negate {
			c = -c
		}
		switch s.kind {
		case substShift:
			bf.cost[s.col] += c
		case substMirror:
			bf.cost[s.col] -= c
		case substSplit:
			bf.cost[s.col] += c
			bf.cost[s.negCol] -= c
		}
	}

	slackAt := bf.nStruct
	artAt := bf.nStruct + nSlack
	for r := 0; r < nRows; r++ {
		row := make([]float64, bf.n)
		copy(row, rows[r])
		switch rels[r] {
		case lp.LE:
			row[slackAt] = 1
			bf.basis[r] = slackAt
			slackAt++
		case lp.GE:
			row[slackAt] = -1
			slackAt++
			row[artAt] = 1
			bf.isArt[artAt] = true
			bf.artCols = append(bf.artCols, artAt)
			bf.basis[r] = artAt
			artAt++
		case lp.EQ:
			row[artAt] = 1
			bf.isArt[artAt] = true
			bf.artCols = append(bf.artCols, artAt)
			bf.basis[r] = artAt
			artAt++
		}
		bf.a[r] = row
	}
	return bf, nil
}

func (bf *boundedForm) recoverPoint(x []float64) []float64 {
	out := make([]float64, len(bf.subs))
	for i, s := range bf.subs {
		switch s.kind {
		case substShift:
			out[i] = s.offset + x[s.col]
		case substMirror:
			out[i] = s.offset - x[s.col]
		case substSplit:
			out[i] = x[s.col] - x[s.negCol]
		}
	}
	return out
}

// colEntry is one non-zero of a sparse constraint column.
type colEntry struct {
	row int
	val float64
}

func identity(n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		out[i][i] = 1
	}
	return out
}

// boundedSolver runs the bounds-aware revised simplex.
type boundedSolver struct {
	bf      *boundedForm
	cols    [][]colEntry
	binv    [][]float64
	basis   []int
	inBase  []bool
	atUpper []bool // nonbasic position (false = at lower/zero)
	banned  []bool
	pivots  int
	since   int
}

func newBoundedSolver(bf *boundedForm) *boundedSolver {
	s := &boundedSolver{
		bf:      bf,
		cols:    make([][]colEntry, bf.n),
		basis:   append([]int(nil), bf.basis...),
		inBase:  make([]bool, bf.n),
		atUpper: make([]bool, bf.n),
		banned:  make([]bool, bf.n),
	}
	for j := 0; j < bf.n; j++ {
		for i := 0; i < bf.m; i++ {
			if v := bf.a[i][j]; !num.IsZero(v) {
				s.cols[j] = append(s.cols[j], colEntry{row: i, val: v})
			}
		}
	}
	for _, bc := range s.basis {
		s.inBase[bc] = true
	}
	s.binv = identity(bf.m)
	return s
}

// rhsEffective is b minus the contribution of nonbasic-at-upper columns.
func (s *boundedSolver) rhsEffective() []float64 {
	out := append([]float64(nil), s.bf.b...)
	for j := 0; j < s.bf.n; j++ {
		if s.inBase[j] || !s.atUpper[j] {
			continue
		}
		u := s.bf.ub[j]
		for _, e := range s.cols[j] {
			out[e.row] -= e.val * u
		}
	}
	return out
}

// basicValues returns x_B = B⁻¹ (b − N_u u).
func (s *boundedSolver) basicValues() []float64 {
	rhs := s.rhsEffective()
	m := s.bf.m
	out := make([]float64, m)
	for i := 0; i < m; i++ {
		var sum float64
		row := s.binv[i]
		for k := 0; k < m; k++ {
			sum += row[k] * rhs[k]
		}
		out[i] = sum
	}
	return out
}

func (s *boundedSolver) dualVector(cost []float64) []float64 {
	m := s.bf.m
	y := make([]float64, m)
	for i, bc := range s.basis {
		c := cost[bc]
		if num.IsZero(c) {
			continue
		}
		row := s.binv[i]
		for k := 0; k < m; k++ {
			y[k] += c * row[k]
		}
	}
	return y
}

func (s *boundedSolver) objective(cost []float64) float64 {
	xb := s.basicValues()
	var z float64
	for i, bc := range s.basis {
		z += cost[bc] * xb[i]
	}
	for j := 0; j < s.bf.n; j++ {
		if !s.inBase[j] && s.atUpper[j] {
			z += cost[j] * s.bf.ub[j]
		}
	}
	return z
}

func (s *boundedSolver) reducedCost(cost, y []float64, j int) float64 {
	rc := cost[j]
	for _, e := range s.cols[j] {
		rc -= y[e.row] * e.val
	}
	return rc
}

func (s *boundedSolver) ftran(j int) []float64 {
	m := s.bf.m
	d := make([]float64, m)
	for _, e := range s.cols[j] {
		col := e.row
		v := e.val
		for i := 0; i < m; i++ {
			d[i] += s.binv[i][col] * v
		}
	}
	return d
}

// iterate optimizes the loaded cost vector.
func (s *boundedSolver) iterate(cost []float64, maxPivots int) lp.Status {
	stall := 0
	bland := false
	prev := s.objective(cost)
	for s.pivots < maxPivots {
		y := s.dualVector(cost)
		enter := -1
		var enterSigma float64
		best := feasTol
		for j := 0; j < s.bf.n; j++ {
			if s.inBase[j] || s.banned[j] {
				continue
			}
			rc := s.reducedCost(cost, y, j)
			var improve float64
			var sigma float64
			if !s.atUpper[j] && rc < -feasTol {
				improve = -rc
				sigma = 1 // increase from lower bound
			} else if s.atUpper[j] && rc > feasTol {
				improve = rc
				sigma = -1 // decrease from upper bound
			} else {
				continue
			}
			if bland {
				enter, enterSigma = j, sigma
				break
			}
			if improve > best {
				best = improve
				enter, enterSigma = j, sigma
			}
		}
		if enter == -1 {
			return lp.Optimal
		}

		d := s.ftran(enter)
		xb := s.basicValues()
		// Maximum step t >= 0 moving x_enter by sigma*t:
		// x_B(t) = x_B − sigma·t·d must stay within [0, ub_B];
		// t may not exceed the entering column's own bound span.
		tMax := s.bf.ub[enter] // bound-flip step (may be +inf)
		leave := -1
		leaveToUpper := false
		for i := 0; i < s.bf.m; i++ {
			coef := enterSigma * d[i]
			bc := s.basis[i]
			var limit float64
			var toUpper bool
			switch {
			case coef > pivotTol:
				limit = xb[i] / coef // basic falls to lower bound 0
				toUpper = false
			case coef < -pivotTol && !math.IsInf(s.bf.ub[bc], 1):
				limit = (s.bf.ub[bc] - xb[i]) / (-coef) // basic climbs to ub
				toUpper = true
			default:
				continue
			}
			if limit < -feasTol {
				limit = 0
			}
			if limit < tMax-feasTol ||
				(limit < tMax+feasTol && leave != -1 && s.basis[i] < s.basis[leave]) {
				tMax = limit
				leave = i
				leaveToUpper = toUpper
			}
		}
		if math.IsInf(tMax, 1) {
			return lp.Unbounded
		}
		if leave == -1 {
			// Bound flip: the entering variable crosses to its other
			// bound without any basis change.
			s.atUpper[enter] = !s.atUpper[enter]
			s.pivots++
		} else {
			// The leaving variable exits at lower (0) or upper bound.
			lv := s.basis[leave]
			s.pivot(leave, enter, d)
			s.atUpper[lv] = leaveToUpper
			s.atUpper[enter] = false // basic now; flag meaningless but keep clean
		}
		cur := s.objective(cost)
		if prev-cur < 1e-12 {
			stall++
			if stall > stallLimit {
				bland = true
			}
		} else {
			stall = 0
			bland = false
		}
		prev = cur
	}
	return lp.IterationLimit
}

func (s *boundedSolver) pivot(leave, enter int, d []float64) {
	m := s.bf.m
	p := d[leave]
	inv := 1 / p
	rowL := s.binv[leave]
	for k := 0; k < m; k++ {
		rowL[k] *= inv
	}
	for i := 0; i < m; i++ {
		if i == leave {
			continue
		}
		f := d[i]
		if num.IsZero(f) {
			continue
		}
		row := s.binv[i]
		for k := 0; k < m; k++ {
			row[k] -= f * rowL[k]
		}
	}
	s.inBase[s.basis[leave]] = false
	s.inBase[enter] = true
	s.basis[leave] = enter
	s.pivots++
	s.since++
	if s.since >= 64 {
		s.refactor()
	}
}

func (s *boundedSolver) refactor() {
	m := s.bf.m
	a := make([][]float64, m)
	for i := 0; i < m; i++ {
		a[i] = make([]float64, 2*m)
		a[i][m+i] = 1
	}
	for col, bc := range s.basis {
		for _, e := range s.cols[bc] {
			a[e.row][col] = e.val
		}
	}
	for col := 0; col < m; col++ {
		piv := col
		for i := col + 1; i < m; i++ {
			if math.Abs(a[i][col]) > math.Abs(a[piv][col]) {
				piv = i
			}
		}
		if math.Abs(a[piv][col]) < 1e-12 {
			return
		}
		a[col], a[piv] = a[piv], a[col]
		f := a[col][col]
		for k := col; k < 2*m; k++ {
			a[col][k] /= f
		}
		for i := 0; i < m; i++ {
			if i == col {
				continue
			}
			g := a[i][col]
			if num.IsZero(g) {
				continue
			}
			for k := col; k < 2*m; k++ {
				a[i][k] -= g * a[col][k]
			}
		}
	}
	for i := 0; i < m; i++ {
		copy(s.binv[i], a[i][m:])
	}
	s.since = 0
}

func (s *boundedSolver) driveOutArtificials() {
	for i := 0; i < s.bf.m; i++ {
		if !s.bf.isArt[s.basis[i]] {
			continue
		}
		for j := 0; j < s.bf.n; j++ {
			if s.bf.isArt[j] || s.inBase[j] || s.banned[j] {
				continue
			}
			d := s.ftran(j)
			if math.Abs(d[i]) > pivotTol {
				lv := s.basis[i]
				s.pivot(i, j, d)
				s.atUpper[lv] = false
				s.atUpper[j] = false
				break
			}
		}
	}
}
