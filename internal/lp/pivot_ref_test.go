package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/num"
)

// densePivot is the tableau pivot before the sparse row update, kept as
// the reference the served pivot is held to: the leaving row is scaled
// over all n columns, and so is the update of every touched row and of the
// reduced-cost row.
func densePivot(t *tableau, leave, enter int) {
	a, b := t.sf.a, t.sf.b
	p := a[leave][enter]
	inv := 1 / p
	rowL := a[leave]
	for j := range rowL {
		rowL[j] *= inv
	}
	b[leave] *= inv
	for r := range a {
		if r == leave {
			continue
		}
		f := a[r][enter]
		if num.IsZero(f) {
			continue
		}
		row := a[r]
		for j := range row {
			row[j] -= f * rowL[j]
		}
		b[r] -= f * b[leave]
		if b[r] < 0 && b[r] > -feasTol {
			b[r] = 0
		}
	}
	f := t.obj[enter]
	if !num.IsZero(f) {
		for j := range t.obj {
			t.obj[j] -= f * rowL[j]
		}
		t.objRHS -= f * b[leave]
	}
	t.basis[leave] = enter
	t.pivots++
}

// stepRun is what one solve did and found: every basis exchange in order
// (leave, enter pairs), the final basis, and the answer.
type stepRun struct {
	status     Status
	pivots     int
	degenerate int // pivots that did not improve the objective
	steps      []int
	basis      []int
	values     []float64
	duals      []float64
	objective  float64
}

// stepSolve is solveTableau with the pivot kernel passed in and every
// exchange recorded. Its loop and its artificial drive-out are
// tableau.iterate and tableau.driveOutArtificials line for line; the
// other tableau helpers are the served ones.
func stepSolve(m *Model, pivot func(t *tableau, leave, enter int)) stepRun {
	var sf standardForm
	if _, err := buildStandardInto(m, &sf); err != nil {
		panic(err)
	}
	var t tableau
	t.reset(&sf)
	var run stepRun
	exchange := func(leave, enter int) {
		pivot(&t, leave, enter)
		run.steps = append(run.steps, leave, enter)
	}
	maxPivots := 200 + 60*(sf.m+sf.n)
	iterate := func() Status {
		stall, bland := 0, false
		prev := t.objective()
		for t.pivots < maxPivots {
			enter := t.chooseEnter(bland)
			if enter == -1 {
				return Optimal
			}
			leave := t.chooseLeave(enter)
			if leave == -1 {
				return Unbounded
			}
			exchange(leave, enter)
			cur := t.objective()
			if prev-cur < 1e-12 {
				run.degenerate++
				stall++
				if stall > stallLimit {
					bland = true
				}
			} else {
				stall, bland = 0, false
			}
			prev = cur
		}
		return IterationLimit
	}
	finish := func(st Status) stepRun {
		run.status, run.pivots, run.basis = st, t.pivots, slices.Clone(t.basis)
		return run
	}

	if len(sf.artCols) > 0 {
		phase1 := make([]float64, sf.n)
		for _, j := range sf.artCols {
			phase1[j] = 1
		}
		t.setObjective(phase1)
		if st := iterate(); st == IterationLimit {
			return finish(st)
		}
		if t.objective() > feasTol*float64(1+sf.m) {
			return finish(Infeasible)
		}
		for r := 0; r < sf.m; r++ {
			if !sf.isArt[t.basis[r]] {
				continue
			}
			for j := 0; j < sf.n; j++ {
				if !sf.isArt[j] && !t.banned[j] && math.Abs(sf.a[r][j]) > pivotTol {
					exchange(r, j)
					break
				}
			}
		}
		for j, art := range sf.isArt {
			if art {
				t.banned[j] = true
			}
		}
	}
	t.setObjective(sf.cost)
	if st := iterate(); st != Optimal {
		return finish(st)
	}
	x := make([]float64, sf.n)
	t.extractInto(x)
	run.values = make([]float64, m.NumVars())
	sf.recoverPointInto(run.values, x)
	run.objective = m.Eval(run.values)
	run.duals = make([]float64, m.NumConstraints())
	for ci, r := range sf.rowOfCons {
		y := -t.obj[sf.basis[r]] * sf.rowSign[r]
		if sf.negate {
			y = -y
		}
		run.duals[ci] = y
	}
	return finish(Optimal)
}

// sameAnswer reports how got differs from want: status, pivot count and
// final basis, the values and objective bit for bit, the duals under ==
// (a dual may be a zero of either sign), and the exchanges when both runs
// recorded them. It returns "" when they agree.
func sameAnswer(want, got stepRun) string {
	switch {
	case want.status != got.status || want.pivots != got.pivots:
		return fmt.Sprintf("%v after %d pivots, want %v after %d", got.status, got.pivots, want.status, want.pivots)
	case got.steps != nil && !slices.Equal(want.steps, got.steps):
		return fmt.Sprintf("exchanges %v, want %v", got.steps, want.steps)
	case !slices.Equal(want.basis, got.basis):
		return fmt.Sprintf("final basis %v, want %v", got.basis, want.basis)
	case math.Float64bits(want.objective) != math.Float64bits(got.objective):
		return fmt.Sprintf("objective %x, want %x", math.Float64bits(got.objective), math.Float64bits(want.objective))
	}
	for v := range want.values {
		if math.Float64bits(want.values[v]) != math.Float64bits(got.values[v]) {
			return fmt.Sprintf("value[%d] = %v, want %v", v, got.values[v], want.values[v])
		}
	}
	for c := range want.duals {
		if want.duals[c] != got.duals[c] {
			return fmt.Sprintf("dual[%d] = %v, want %v", c, got.duals[c], want.duals[c])
		}
	}
	return ""
}

// servedRun solves m on the production path and reads what stepSolve
// records, the exchanges aside.
func servedRun(m *Model, ws *Workspace) stepRun {
	sol, err := m.SolveWithWorkspace(Tableau, ws)
	run := stepRun{status: sol.Status, pivots: sol.Pivots, basis: slices.Clone(ws.t.basis)}
	if err == nil {
		run.values, run.duals, run.objective = sol.Values(), sol.Duals(), sol.Objective
	}
	return run
}

// localModel is shaped like the allocation LPs: every row couples a few
// neighbouring variables, so the tableau is mostly zeros and the sparse
// update skips most columns.
func localModel(rng *rand.Rand, nVars, nCons int) *Model {
	m := NewModel(Minimize)
	for v := 0; v < nVars; v++ {
		m.AddVar("", 0, 1+rng.Float64()*4, rng.Float64()*2-1)
	}
	m.AddVar("theta", 0, Inf, 1)
	for c := 0; c < nCons; c++ {
		at := rng.Intn(nVars)
		terms := []Term{{VarID(at), 1}, {VarID((at + 1) % nVars), rng.Float64()}}
		switch c % 3 {
		case 0:
			m.AddConstraint("", append(terms, Term{VarID(nVars), -1}), LE, rng.Float64())
		case 1:
			m.AddConstraint("", terms, GE, rng.Float64())
		default:
			m.AddConstraint("", terms, LE, 1+rng.Float64())
		}
	}
	return m
}

// tiedModel draws small integer coefficients, costs and right-hand sides,
// many of them zero: degenerate vertices, equal reduced costs and equal
// ratios everywhere, so the tie-breaks and Bland's fallback are exercised.
func tiedModel(rng *rand.Rand, nVars, nCons int) *Model {
	sense := Minimize
	if rng.Intn(2) == 0 {
		sense = Maximize
	}
	m := NewModel(sense)
	for v := 0; v < nVars; v++ {
		hi := Inf
		if rng.Intn(3) == 0 {
			hi = float64(1 + rng.Intn(2))
		}
		m.AddVar("", 0, hi, float64(rng.Intn(3)-1))
	}
	for c := 0; c < nCons; c++ {
		var terms []Term
		for v := 0; v < nVars; v++ {
			if k := rng.Intn(5) - 1; k != 0 && rng.Intn(2) == 0 {
				terms = append(terms, Term{VarID(v), float64(k)})
			}
		}
		if len(terms) == 0 {
			continue
		}
		m.AddConstraint("", terms, Relation(rng.Intn(3)), float64(rng.Intn(3)))
	}
	return m
}

// TestSparsePivotMatchesDense holds the served pivot to the dense
// reference on random LPs of four kinds — mixed bounds and relations,
// feasible boxes, local allocation-shaped rows, and degenerate tied ones —
// and on Beale's cycling example: the same exchanges in the same order,
// the same pivot count and final basis, the values and objective bit for
// bit, and duals equal under ==. The served solve is held to the same
// reference end to end.
func TestSparsePivotMatchesDense(t *testing.T) {
	families := []struct {
		name  string
		model func(rng *rand.Rand) *Model
	}{
		{"mixed", func(rng *rand.Rand) *Model { return randomModel(rng, 2+rng.Intn(10), 1+rng.Intn(9)) }},
		{"feasible", func(rng *rand.Rand) *Model { m, _ := randomFeasibleLP(rng, 1+rng.Intn(8), rng.Intn(10)); return m }},
		{"local", func(rng *rand.Rand) *Model { return localModel(rng, 4+rng.Intn(30), 4+rng.Intn(40)) }},
		{"tied", func(rng *rand.Rand) *Model { return tiedModel(rng, 2+rng.Intn(8), 1+rng.Intn(8)) }},
	}
	ws := &Workspace{}
	check := func(what string, m *Model) stepRun {
		t.Helper()
		want := stepSolve(m, densePivot)
		if diff := sameAnswer(want, stepSolve(m, (*tableau).pivot)); diff != "" {
			t.Fatalf("%s: sparse pivot: %s\n%s", what, diff, m)
		}
		if diff := sameAnswer(want, servedRun(m, ws)); diff != "" {
			t.Fatalf("%s: served solve: %s\n%s", what, diff, m)
		}
		return want
	}
	for _, f := range families {
		var pivots, degenerate int
		outcomes := map[Status]int{}
		for seed := int64(0); seed < 300; seed++ {
			run := check(fmt.Sprintf("%s seed %d", f.name, seed), f.model(rand.New(rand.NewSource(seed))))
			pivots += run.pivots
			degenerate += run.degenerate
			outcomes[run.status]++
		}
		t.Logf("%s: %d pivots, %d degenerate, outcomes %v", f.name, pivots, degenerate, outcomes)
		if f.name == "tied" && (degenerate == 0 || outcomes[Optimal] == 0 || outcomes[Optimal] == 300) {
			t.Errorf("tied LPs: %d degenerate pivots, outcomes %v: the family lost its ties or its variety", degenerate, outcomes)
		}
	}

	beale := NewModel(Minimize)
	x4 := beale.AddVar("x4", 0, Inf, -0.75)
	x5 := beale.AddVar("x5", 0, Inf, 150)
	x6 := beale.AddVar("x6", 0, Inf, -0.02)
	x7 := beale.AddVar("x7", 0, Inf, 6)
	beale.AddConstraint("r1", []Term{{x4, 0.25}, {x5, -60}, {x6, -0.04}, {x7, 9}}, LE, 0)
	beale.AddConstraint("r2", []Term{{x4, 0.5}, {x5, -90}, {x6, -0.02}, {x7, 3}}, LE, 0)
	beale.AddConstraint("r3", []Term{{x6, 1}}, LE, 1)
	if run := check("Beale", beale); run.degenerate == 0 {
		t.Errorf("Beale's example solved with no degenerate pivot")
	}
}
