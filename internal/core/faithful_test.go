package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/lp"
)

// planPrinted plans one request with the paper's LP exactly as printed:
// n(n−1) flow variables I'_ij, n capacity variables C'_i, n availability
// variables V'_i and θ — (n²+n+1) variables in all — related by the
// equality constraints (1) and (2). It is the reference the served,
// substituted formulation is compared against, at roughly n× the pivot
// cost; the repair and the realized θ are the served path's (finishPlan).
// requesterRow also imposes eq. 6 and the relaxed eq. 3 on the requester,
// which the served form lifts (DESIGN §5.1). It returns the plan and the
// LP's own θ — the objective, which under requesterRow is not the realized
// perturbation of the others that Allocation.Theta reports. Absolute
// agreements are not part of the printed LP, so it refuses them.
func planPrinted(al *Allocator, v []float64, requester int, amount float64, requesterRow bool) (*Allocation, float64, error) {
	if al.hasA {
		return nil, 0, fmt.Errorf("core: the printed LP covers the paper's basic model only (no absolute agreement matrix)")
	}
	al.checkV(v)
	n := al.n
	// The shape a substituted skeleton has with everyone live: variable i
	// is V'_i, and eq. 6 keeps a row per non-requesting principal.
	sk := &planSkeleton{vars: make([]int32, n), req: requester}
	for i := range sk.vars {
		sk.vars[i] = int32(i)
		if i != requester {
			sk.rows = append(sk.rows, compRow{i: int32(i), self: int32(i), src: al.cols[i].idx})
		}
	}
	ws := &planWS{}
	al.bindPlan(ws, sk, v, requester)
	m := lp.NewModel(lp.Minimize)

	const eps = 1e-6
	vp := make([]lp.VarID, n)
	for i := 0; i < n; i++ {
		vp[i] = m.AddVar(fmt.Sprintf("V'_%d", i), math.Max(0, v[i]-ws.uCol[i]), v[i], -eps*al.flow[i].conn)
	}
	cp := make([]lp.VarID, n)
	for i := 0; i < n; i++ {
		cp[i] = m.AddVar(fmt.Sprintf("C'_%d", i), 0, lp.Inf, 0)
	}
	flow := make([][]lp.VarID, n)
	for i := 0; i < n; i++ {
		flow[i] = make([]lp.VarID, n)
		for j := 0; j < n; j++ {
			if i != j {
				flow[i][j] = m.AddVar(fmt.Sprintf("I'_%d_%d", i, j), 0, lp.Inf, 0)
			}
		}
	}
	theta := m.AddVar("theta", 0, lp.Inf, 1)

	// (1) I'_ij = V'_i · K_ij.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.AddConstraint(fmt.Sprintf("flow_%d_%d", i, j),
					[]lp.Term{{Var: flow[i][j], Coeff: 1}, {Var: vp[i], Coeff: -al.kAt(i, j)}}, lp.EQ, 0)
			}
		}
	}
	// (2) C'_i = V'_i + Σ_{k≠i} I'_ki.
	for i := 0; i < n; i++ {
		terms := []lp.Term{{Var: cp[i], Coeff: 1}, {Var: vp[i], Coeff: -1}}
		for k := 0; k < n; k++ {
			if k != i {
				terms = append(terms, lp.Term{Var: flow[k][i], Coeff: -1})
			}
		}
		m.AddConstraint(fmt.Sprintf("capacity_%d", i), terms, lp.EQ, 0)
	}
	// (5) Σ (V_i − V'_i) = amount.
	var totalV float64
	sumTerms := make([]lp.Term, n)
	for i := 0; i < n; i++ {
		totalV += v[i]
		sumTerms[i] = lp.Term{Var: vp[i], Coeff: 1}
	}
	m.AddConstraint("consume", sumTerms, lp.EQ, totalV-amount)
	// (6) C_i − θ ≤ C'_i ≤ C_i.
	perturb := func(i int, c float64) {
		m.AddConstraint(fmt.Sprintf("perturb_lo_%d", i),
			[]lp.Term{{Var: cp[i], Coeff: 1}, {Var: theta, Coeff: 1}}, lp.GE, c)
		m.AddConstraint(fmt.Sprintf("perturb_hi_%d", i),
			[]lp.Term{{Var: cp[i], Coeff: 1}}, lp.LE, c)
	}
	for r, pr := range sk.rows {
		perturb(int(pr.i), ws.caps[r])
	}
	if requesterRow {
		capReq := al.capacity(v, requester)
		perturb(requester, capReq)
		// (3) C'_A = C_A − x, relaxed to ≥: the flow model only loses
		// K_kA ≤ 1 per unit taken from k, so demanding equality would be
		// infeasible whenever any take crosses a fractional agreement.
		m.AddConstraint("requester_drop",
			[]lp.Term{{Var: cp[requester], Coeff: 1}}, lp.GE, capReq-amount)
	}

	sol, err := m.Solve()
	if err != nil {
		return nil, 0, fmt.Errorf("core: printed allocation LP failed: %w", err)
	}
	ws.readNewV(sol)
	if err := al.finishPlan(ws, sk, v, amount); err != nil {
		return nil, 0, err
	}
	out := &Allocation{Take: make([]float64, n), NewV: make([]float64, n)}
	ws.scatter(out, v)
	return out, sol.Value(theta), nil
}

func TestQuickFaithfulMatchesSubstituted(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, v, requester, amount := randomScenario(rng)
		al, err := NewAllocator(s, nil, Config{})
		if err != nil {
			return false
		}
		p1, e1 := al.Plan(v, requester, amount)
		if e1 != nil {
			return true // refused before any LP: nothing to compare
		}
		p2, _, e2 := planPrinted(al, v, requester, amount, false)
		if e2 != nil {
			t.Logf("seed %d: served plans, printed LP fails: %v", seed, e2)
			return false
		}
		// Objective value must agree; takes may differ across degenerate
		// optima, so compare θ.
		if math.Abs(p1.Theta-p2.Theta) > 1e-4*(1+p1.Theta) {
			t.Logf("seed %d: theta served %g vs printed %g", seed, p1.Theta, p2.Theta)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}

	// Absolute agreements are outside the printed LP: the served form plans
	// with them, the reference says it cannot.
	al, err := NewAllocator(twoNodeSystem(), [][]float64{{0, 0}, {3, 0}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := al.Plan([]float64{10, 20}, 0, 5); err != nil {
		t.Fatalf("served form with A: %v", err)
	}
	_, _, err = planPrinted(al, []float64{10, 20}, 0, 5, false)
	if err == nil || !strings.Contains(err.Error(), "no absolute agreement matrix") {
		t.Fatalf("printed LP with a non-nil A: err = %v, want the basic-model refusal", err)
	}
}

// TestKeepRequesterConstraint keeps DESIGN §5.1's claim executable. Two
// sources lend the requester everything they have (K = 1), so whatever the
// split its own capacity drops by the whole request x. With eq. 3/6 on the
// requester, as printed, that alone forces θ ≥ x; no split can hurt anyone
// else by more than x, so every split costs the same objective and the
// tie-break — keep the better-connected source — decides alone: one source
// gives everything. Lifted off the requester, as served, θ is the others'
// perturbation and the optimum halves it by drawing on both.
func TestKeepRequesterConstraint(t *testing.T) {
	const x = 6.0
	s := [][]float64{
		{0, 0, 0, 0},
		{1, 0, 0, 0},   // source 1 backs the requester in full
		{1, 0, 0, 0.5}, // so does source 2, the better connected
		{0, 0, 0, 0},
	}
	v := []float64{0, 10, 10, 0}
	al, err := NewAllocator(s, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}

	printed, lpTheta, err := planPrinted(al, v, 0, x, true)
	if err != nil {
		t.Fatal(err)
	}
	if lpTheta < x-1e-6 {
		t.Errorf("printed: LP θ = %g, eq. 3/6 on the requester should force θ ≥ x = %g", lpTheta, x)
	}
	almost(t, printed.Take[1], x, 1e-6, "printed: the tie-break, not θ, picks the source")
	almost(t, printed.Theta, x, 1e-6, "printed: realized perturbation of the others")

	lifted, liftedTheta, err := planPrinted(al, v, 0, x, false)
	if err != nil {
		t.Fatal(err)
	}
	served, err := al.Plan(v, 0, x)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, liftedTheta, x/2, 1e-5, "lifted: LP θ is the others' perturbation")
	almost(t, lifted.Theta, x/2, 1e-5, "lifted: realized θ")
	almost(t, served.Theta, x/2, 1e-5, "served: realized θ")
	almost(t, served.Take[1], x/2, 1e-5, "served: take balanced across the sources")
	almost(t, served.Take[2], x/2, 1e-5, "served: take balanced across the sources")
}
