package core

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/lp"
	"repro/internal/num"
)

// This file keeps the skeleton builder as it was before builds went into
// one arena — a name formatted per variable and row, a population-sized
// inverse index and reach mask, terms grown row by row — as the reference
// the served builder is checked against, and exports the comparisons to the
// external test package (which can reach internal/modeltest's generator).

// refSkeleton builds requester's skeleton the old way. The result plans
// like a served one: self and src are read off the inverse index.
func (al *Allocator) refSkeleton(requester int) *planSkeleton {
	n := al.n
	sk := &planSkeleton{}
	var live []int32
	if al.cfg.ComponentLP {
		merged := false
		for _, k := range al.cols[requester].idx {
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
		vp[x] = m.AddVar(fmt.Sprintf("V'_%d", i), 0, 0, -eps*al.flow[i].conn)
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
			for x, j := range al.aCols[k] {
				if j != k && al.aVals[k][x] > 0 {
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
		idx, ks, as := al.cols[i].idx, al.cols[i].k, al.cols[i].a
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
	sk.once.Do(func() {})
	return sk
}

// SkeletonDiff builds requester's skeleton with the served builder and with
// the reference and describes the first difference, "" when there is none.
// The models are compared through String, which prints every objective
// coefficient, every row's terms in order with its relation, right-hand
// side and name, and every variable's name and bounds, floats in %g (which
// round-trips them): equal strings are equal models, on-demand names
// included.
func (al *Allocator) SkeletonDiff(requester int) string {
	got, want := &planSkeleton{}, al.refSkeleton(requester)
	al.buildSkeleton(got, requester)
	switch {
	case !slices.Equal(got.vars, want.vars) || got.req != want.req:
		return fmt.Sprintf("vars %v (requester at %d), reference %v (at %d)", got.vars, got.req, want.vars, want.req)
	case got.consumeRow != want.consumeRow:
		return fmt.Sprintf("consume row %d, reference %d", got.consumeRow, want.consumeRow)
	case !slices.Equal(got.capFlowRows, want.capFlowRows):
		return fmt.Sprintf("cap_flow rows %v, reference %v", got.capFlowRows, want.capFlowRows)
	case len(got.rows) != len(want.rows):
		return fmt.Sprintf("%d perturb rows, reference %d", len(got.rows), len(want.rows))
	}
	for r, pr := range got.rows {
		w := want.rows[r]
		if pr.row != w.row || pr.i != w.i || pr.self != w.self || !slices.Equal(pr.src, w.src) {
			return fmt.Sprintf("perturb row %d is %+v, reference %+v", r, pr, w)
		}
	}
	if g, w := got.model.String(), want.model.String(); g != w {
		return fmt.Sprintf("model\n%s\nreference\n%s", g, w)
	}
	return ""
}

// WithReferenceSkeletons returns an allocator over al's agreements whose
// every skeleton came from the reference builder.
func (al *Allocator) WithReferenceSkeletons() *Allocator {
	ref := *al
	ref.skel = make([]atomic.Pointer[planSkeleton], al.n)
	for r := range ref.skel {
		ref.skel[r].Store(al.refSkeleton(r))
	}
	return &ref
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
		ac, bc := a.cols[c], b.cols[c]
		if !slices.Equal(ac.idx, bc.idx) || !sameBits(ac.k, bc.k) || !sameBits(ac.a, bc.a) {
			return fmt.Sprintf("column %d: %v %v %v against %v %v %v", c, ac.idx, ac.k, ac.a, bc.idx, bc.k, bc.a)
		}
	}
	return ""
}
