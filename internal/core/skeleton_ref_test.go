package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/lp"
	"repro/internal/num"
)

// This file keeps the two steps a plan's LP was once built in as the
// reference the served build (Allocator.build) is checked against: the
// skeleton builder as it was before builds went into one arena — a name
// formatted per variable and row, a population-sized inverse index and
// reach mask, terms grown row by row — and rebind, which wrote every number
// into a copy of that shape by term position. It exports the comparisons to
// the external test package (which can reach internal/modeltest's
// generator).

// refSkeleton is requester's LP shape as the reference builds it: the model
// with its skeleton-time numbers, and where rebind finds the numbers it
// writes.
type refSkeleton struct {
	model       *lp.Model
	consumeRow  int
	capFlowRows []capFlowRef
	vars        []int32
	req         int
	rows        []compRow
}

// buildRefSkeleton builds requester's skeleton the old way.
func (al *Allocator) buildRefSkeleton(requester int) *refSkeleton {
	n := al.n
	sk := &refSkeleton{}
	var live []int32
	if al.cfg.ComponentLP {
		merged := false
		for _, k := range al.column(requester).idx {
			if !merged && int(k) > requester {
				live = append(live, int32(requester))
				merged = true
			}
			live = append(live, k)
		}
		if !merged {
			live = append(live, int32(requester))
		}
	} else {
		for i := 0; i < n; i++ {
			live = append(live, int32(i))
		}
	}
	sk.vars = live
	varOf := make([]int32, n)
	for i := range varOf {
		varOf[i] = -1
	}
	for x, i := range live {
		varOf[i] = int32(x)
	}
	sk.req = int(varOf[requester])

	m := lp.NewModel(lp.Minimize)
	const eps = 1e-6
	vp := make([]lp.VarID, len(live))
	for x, i := range live {
		vp[x] = m.AddVar(fmt.Sprintf("V'_%d", i), 0, 0, -eps*al.conn[i])
	}
	theta := m.AddVar("theta", 0, lp.Inf, 1)

	sumTerms := make([]lp.Term, len(live))
	for x := range live {
		sumTerms[x] = lp.Term{Var: vp[x], Coeff: 1}
	}
	sk.consumeRow = m.AddConstraint("consume", sumTerms, lp.EQ, 0)

	touched := make([]bool, n)
	for _, k := range live {
		touched[k] = true
		kc, _, kv := al.FlowRow(int(k))
		for x, j := range kc {
			if j != k && !num.IsZero(kv[x]) {
				touched[j] = true
			}
		}
		if al.hasA {
			ac, av := al.a.Row(int(k))
			for x, j := range ac {
				if j != k && av[x] > 0 {
					touched[j] = true
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if !touched[i] || i == requester {
			continue
		}
		var terms []lp.Term
		if x := varOf[i]; x >= 0 {
			terms = append(terms, lp.Term{Var: vp[x], Coeff: 1})
		}
		terms = append(terms, lp.Term{Var: theta, Coeff: 1})
		col := al.column(i)
		idx, ks, as := col.idx, col.k, col.a
		pr := compRow{i: int32(i), self: varOf[i]}
		for x, k := range idx {
			pr.src = append(pr.src, varOf[k])
			if varOf[k] < 0 {
				continue
			}
			hasAbs := al.hasA && as[x] > 0
			if !hasAbs {
				if !num.IsZero(ks[x]) {
					terms = append(terms, lp.Term{Var: vp[varOf[k]], Coeff: ks[x]})
				}
				continue
			}
			u := m.AddVar(fmt.Sprintf("u_%d_%d", k, i), 0, lp.Inf, 0)
			cfRow := m.AddConstraint(fmt.Sprintf("cap_flow_%d_%d", k, i),
				[]lp.Term{{Var: u, Coeff: 1}, {Var: vp[varOf[k]], Coeff: -ks[x]}}, lp.LE, as[x])
			sk.capFlowRows = append(sk.capFlowRows, capFlowRef{row: cfRow, k: k, i: int32(i)})
			m.AddConstraint(fmt.Sprintf("cap_own_%d_%d", k, i),
				[]lp.Term{{Var: u, Coeff: 1}, {Var: vp[varOf[k]], Coeff: -1}}, lp.LE, 0)
			terms = append(terms, lp.Term{Var: u, Coeff: 1})
		}
		pr.row = m.AddConstraint(fmt.Sprintf("perturb_%d", i), terms, lp.GE, 0)
		sk.rows = append(sk.rows, pr)
	}
	sk.model = m
	return sk
}

// bindRef points ws at sk and fills what rebind and the finish read: the
// requester's U column by variable position, and C_i for every kept row.
func (al *Allocator) bindRef(ws *planWS, sk *refSkeleton, v []float64, requester int) {
	live := len(sk.vars)
	ws.vars, ws.req, ws.rows, ws.capFlowRows = sk.vars, sk.req, sk.rows, sk.capFlowRows
	ws.take, ws.newV, ws.caps = make([]float64, live), make([]float64, live), make([]float64, len(sk.rows))
	al.uColumn(ws, v, requester)
	for r, pr := range sk.rows {
		ws.caps[r] = al.capacity(v, int(pr.i))
	}
}

// flatModel is an LP written out through lp.Model's accessors: every
// variable's name, bounds and objective coefficient, and every row's name,
// terms in order, relation and right-hand side. rebind writes into one, and
// two compare bit for bit.
type flatModel struct {
	vars []flatVar
	rows []flatRow
}

type flatVar struct {
	name        string
	lo, hi, obj float64
}

type flatRow struct {
	name  string
	terms []lp.Term
	rel   lp.Relation
	rhs   float64
}

// flatten writes m out.
func flatten(m *lp.Model) *flatModel {
	f := &flatModel{}
	for v := lp.VarID(0); int(v) < m.NumVars(); v++ {
		lo, hi := m.Bounds(v)
		f.vars = append(f.vars, flatVar{name: m.VarName(v), lo: lo, hi: hi, obj: m.ObjCoeff(v)})
	}
	for r := 0; r < m.NumConstraints(); r++ {
		terms, rel, rhs := m.Constraint(r)
		f.rows = append(f.rows, flatRow{name: m.ConstraintName(r), terms: slices.Clone(terms), rel: rel, rhs: rhs})
	}
	return f
}

// model builds f back into an lp.Model.
func (f *flatModel) model() *lp.Model {
	m := lp.NewModel(lp.Minimize)
	for _, v := range f.vars {
		m.AddVar(v.name, v.lo, v.hi, v.obj)
	}
	for _, r := range f.rows {
		m.AddConstraint(r.name, r.terms, r.rel, r.rhs)
	}
	return m
}

// diff describes the first difference between f and g, floats compared by
// their bits, "" when there is none.
func (f *flatModel) diff(g *flatModel) string {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if len(f.vars) != len(g.vars) || len(f.rows) != len(g.rows) {
		return fmt.Sprintf("%d variables and %d rows, reference %d and %d", len(f.vars), len(f.rows), len(g.vars), len(g.rows))
	}
	for x, v := range f.vars {
		if w := g.vars[x]; v.name != w.name || !same(v.lo, w.lo) || !same(v.hi, w.hi) || !same(v.obj, w.obj) {
			return fmt.Sprintf("variable %d is %+v, reference %+v", x, v, w)
		}
	}
	for r, row := range f.rows {
		w := g.rows[r]
		sameTerms := slices.EqualFunc(row.terms, w.terms, func(a, b lp.Term) bool { return a.Var == b.Var && same(a.Coeff, b.Coeff) })
		if row.name != w.name || !sameTerms || row.rel != w.rel || !same(row.rhs, w.rhs) {
			return fmt.Sprintf("row %d is %+v, reference %+v", r, row, w)
		}
	}
	return ""
}

// rebind writes every number of the plan's model f from the current
// agreements, availability and request: bounds and objective, the consume
// row, each kept perturb row's K terms and RHS (re-folding its pinned
// sources; with everyone live the RHS is C_i) and each cap_flow row's −K
// term and RHS. It finds terms where buildRefSkeleton emitted them, which the
// patterns fix.
func (al *Allocator) rebind(f *flatModel, sk *refSkeleton, v []float64, amount float64, ws *planWS) {
	var sumLive float64
	for x, i := range sk.vars {
		lo := v[i] - ws.uCol[x]
		if lo < 0 {
			lo = 0
		}
		f.vars[x].lo, f.vars[x].hi, f.vars[x].obj = lo, v[i], al.tieBreak(i)
		sumLive += v[i]
	}
	f.rows[sk.consumeRow].rhs = sumLive - amount
	aux := 0 // the next capFlowRows entry
	for r, pr := range sk.rows {
		i := int(pr.i)
		rhs := ws.caps[r]
		term := 2 // the next term: past V'_i's and theta's
		if pr.self < 0 {
			rhs, term = rhs-v[i], 1 // pinned self term
		}
		col := al.column(int(i))
		for x, k := range col.idx {
			kv, hasAbs := col.k[x], al.hasA && col.a[x] > 0
			switch {
			case pr.src[x] >= 0 && hasAbs: // u_ki's term; its cap_flow row holds the K
				cf := sk.capFlowRows[aux].row
				aux, term = aux+1, term+1
				if !num.IsZero(kv) {
					f.rows[cf].terms[1].Coeff = -kv
				}
				f.rows[cf].rhs = col.a[x]
			case pr.src[x] >= 0:
				if !num.IsZero(kv) {
					f.rows[pr.row].terms[term].Coeff = kv
					term++
				}
			case hasAbs:
				rhs -= al.sourceCap(&col, x, v[k])
			case !num.IsZero(kv):
				rhs -= kv * v[k]
			}
		}
		f.rows[pr.row].rhs = rhs
	}
}

// referencePlan builds requester's LP the reference way — buildRefSkeleton, then
// rebind — and returns it with the workspace bindRef filled for it.
func (al *Allocator) referencePlan(v []float64, requester int, amount float64) (*flatModel, *planWS) {
	sk := al.buildRefSkeleton(requester)
	ws := newPlanWS()
	al.bindRef(ws, sk, v, requester)
	f := flatten(sk.model)
	al.rebind(f, sk, v, amount, ws)
	return f, ws
}

// ModelDiff builds requester's LP for amount with the served build and with
// the reference and describes the first difference, "" when there is none:
// the models variable by variable and row by row, names included, floats by
// their bits, and the bookkeeping the finish and the namers read — the live
// principals, the kept rows with their source positions, the cap_flow rows,
// the U column and the capacities C_i.
func (al *Allocator) ModelDiff(v []float64, requester int, amount float64) string {
	ws := newPlanWS()
	al.build(ws, v, requester, amount)
	want, ref := al.referencePlan(v, requester, amount)
	switch {
	case !slices.Equal(ws.vars, ref.vars) || ws.req != ref.req:
		return fmt.Sprintf("vars %v (requester at %d), reference %v (at %d)", ws.vars, ws.req, ref.vars, ref.req)
	case !slices.Equal(ws.capFlowRows, ref.capFlowRows):
		return fmt.Sprintf("cap_flow rows %v, reference %v", ws.capFlowRows, ref.capFlowRows)
	case len(ws.rows) != len(ref.rows):
		return fmt.Sprintf("%d perturb rows, reference %d", len(ws.rows), len(ref.rows))
	case !sameBits(ws.uCol, ref.uCol) || !sameBits(ws.caps, ref.caps):
		return fmt.Sprintf("U column %v and capacities %v, reference %v and %v", ws.uCol, ws.caps, ref.uCol, ref.caps)
	}
	for r, pr := range ws.rows {
		w := ref.rows[r]
		if pr.row != w.row || pr.i != w.i || pr.self != w.self || !slices.Equal(pr.src, w.src) {
			return fmt.Sprintf("perturb row %d is %+v, reference %+v", r, pr, w)
		}
	}
	if d := flatten(&ws.model).diff(want); d != "" {
		return fmt.Sprintf("%s\nmodel\n%s\nreference\n%s", d, ws.model.String(), want.model())
	}
	return ""
}

// ReferencePlanPairs is PlanPairs through the reference's LP: the same
// refusals, then buildRefSkeleton and rebind, a solve, and the served finish.
func (al *Allocator) ReferencePlanPairs(sources []int, takes []float64, v []float64, requester int, amount float64) ([]int, []float64, float64, error) {
	if amount < 0 {
		return sources, takes, 0, fmt.Errorf("core: negative request %g", amount)
	}
	if c := al.capacity(v, requester); c < amount-1e-9 {
		return sources, takes, 0, &shortfall{principal: requester, capacity: c, amount: amount}
	}
	if num.IsZero(amount) {
		return sources, takes, 0, nil
	}
	f, ws := al.referencePlan(v, requester, amount)
	sol, err := f.model().Solve()
	if err != nil {
		return sources, takes, 0, fmt.Errorf("core: allocation LP failed: %w", err)
	}
	ws.readNewV(sol)
	if err := al.finishPlan(ws, v, amount); err != nil {
		return sources, takes, 0, err
	}
	sources, takes = ws.appendPairs(sources, takes)
	return sources, takes, ws.theta, nil
}

// SameBits is sameBits for the external test package.
var SameBits = sameBits

// ColumnsDiff describes the first difference between the column lists of
// two allocators, "" when every column holds the same sources with the
// same K and A bits.
func ColumnsDiff(a, b *Allocator) string {
	if a.n != b.n {
		return fmt.Sprintf("%d principals against %d", a.n, b.n)
	}
	for c := 0; c < a.n; c++ {
		ac, bc := a.column(c), b.column(c)
		if !slices.Equal(ac.idx, bc.idx) || !sameBits(ac.k, bc.k) || !sameBits(ac.a, bc.a) {
			return fmt.Sprintf("column %d: %v %v %v against %v %v %v", c, ac.idx, ac.k, ac.a, bc.idx, bc.k, bc.a)
		}
	}
	return ""
}
