package modeltest

import (
	"fmt"
	"math"

	"repro/internal/lp"
	"repro/internal/num"
	"repro/internal/planners"
	"repro/internal/store"
)

// RefTransitive computes the flow-coefficient matrix T^(maxLen) by the
// paper's recursive definition, transcribed as directly as possible: for
// every source, walk every cycle-free chain of at most maxLen agreements,
// multiplying the shares along the way. No iteration-order tricks, no
// bitmasks, no parallelism — this is the oracle the exact
// transitive.Closure is judged against. maxLen outside [1, n-1] means full
// closure.
func RefTransitive(s [][]float64, maxLen int) [][]float64 {
	n := len(s)
	if maxLen <= 0 || maxLen > n-1 {
		maxLen = n - 1
		if n <= 1 {
			maxLen = 1
		}
	}
	t := zeroMatrix(n)
	var walk func(src, cur int, product float64, visited []bool, depth int)
	walk = func(src, cur int, product float64, visited []bool, depth int) {
		if depth == maxLen {
			return
		}
		for next := 0; next < n; next++ {
			if visited[next] || num.IsZero(s[cur][next]) {
				continue
			}
			p := product * s[cur][next]
			t[src][next] += p
			visited[next] = true
			walk(src, next, p, visited, depth+1)
			visited[next] = false
		}
	}
	visited := make([]bool, n)
	for src := 0; src < n; src++ {
		visited[src] = true
		walk(src, src, 1, visited, 0)
		visited[src] = false
	}
	return t
}

// Oracle holds the reference view of one graph: the recursive flow
// coefficients, their overdraft-capped form K, and brute-force
// implementations of the §3.1/§3.2 equations built on them.
type Oracle struct {
	g *Graph
	// T is the recursive reference T^(m); K is min(T, 1).
	T, K [][]float64
}

// NewOracle computes the reference coefficient matrices for g.
func NewOracle(g *Graph) *Oracle {
	t := RefTransitive(g.S, g.maxLevel())
	k := cloneMatrix(t)
	for i := range k {
		for j := range k[i] {
			if k[i][j] > 1 {
				k[i][j] = 1
			}
		}
	}
	return &Oracle{g: g, T: t, K: k}
}

// SourceCap returns U_ki = min(V_k·K_ki + A_ki, V_k) for k ≠ i — the
// amount of k's availability that i may draw (§3.2).
func (o *Oracle) SourceCap(v []float64, k, i int) float64 {
	u := v[k] * o.K[k][i]
	if o.g.A != nil {
		u += o.g.A[k][i]
	}
	return math.Min(u, v[k])
}

// Capacities computes C_i = V_i + Σ_{k≠i} U_ki by brute force.
func (o *Oracle) Capacities(v []float64) []float64 {
	n := o.g.N
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		c := v[i]
		for k := 0; k < n; k++ {
			if k != i {
				c += o.SourceCap(v, k, i)
			}
		}
		out[i] = c
	}
	return out
}

// requesterCap returns how much of principal i's availability the
// requester may draw: everything when drawing from itself, U_iA otherwise.
func (o *Oracle) requesterCap(v []float64, i, requester int) float64 {
	if i == requester {
		return v[i]
	}
	return o.SourceCap(v, i, requester)
}

// RealizedTheta recomputes the paper's perturbation metric from first
// principles: max over i ≠ requester of C_i(v) − C_i(newV).
func (o *Oracle) RealizedTheta(v, newV []float64, requester int) float64 {
	before := o.Capacities(v)
	after := o.Capacities(newV)
	worst := 0.0
	for i := range before {
		if i == requester {
			continue
		}
		if d := before[i] - after[i]; d > worst {
			worst = d
		}
	}
	return worst
}

// tieTolerance bounds how far the allocator's connectivity tie-break
// (objective term −1e-6·conn_i·V'_i) can push its optimal θ above the pure
// minimum: at most 1e-6 · Σ_i conn_i · V_i, since V' stays within [0, V].
func (o *Oracle) tieTolerance(v []float64) float64 {
	tol := 0.0
	for i := 0; i < o.g.N; i++ {
		var conn float64
		for j := 0; j < o.g.N; j++ {
			if j != i {
				conn += o.K[i][j]
			}
		}
		tol += conn * v[i]
	}
	return 1e-6 * tol
}

// DensePlan is a plan scattered over the whole population, the one dense
// form left for the oracles that compare whole vectors: Take[i] is drawn
// from principal i. Everything under test plans in (source, take) pairs.
type DensePlan struct {
	Take  []float64
	Theta float64
}

// PlanDense plans through p's pairs and scatters them into a DensePlan of
// len(v) takes.
func PlanDense(p planners.Planner, v []float64, requester int, amount float64) (*DensePlan, error) {
	sources, takes, theta, err := p.PlanPairs(nil, nil, v, requester, amount)
	if err != nil {
		return nil, err
	}
	return &DensePlan{Take: store.DenseTakes(sources, takes, len(v)), Theta: theta}, nil
}

// CheckAllocation verifies that an allocation satisfies the paper's
// equations 1–6 against the oracle's coefficients: per-source caps U_ki
// (the requester's own availability for itself, so V' = V − take stays in
// [0, V]), flow conservation Σ takes = amount, and that the reported θ
// matches the brute-force recomputation at V' = V − take. It returns nil
// when every equation holds within tolerance.
func (o *Oracle) CheckAllocation(v []float64, requester int, amount float64, a *DensePlan) error {
	n := o.g.N
	if len(a.Take) != n {
		return fmt.Errorf("allocation has %d takes for %d principals", len(a.Take), n)
	}
	scale := 1 + amount
	for _, x := range v {
		scale = math.Max(scale, 1+x)
	}
	tol := 1e-7 * scale
	var sum float64
	newV := make([]float64, n)
	for i, take := range a.Take {
		if take < -tol {
			return fmt.Errorf("take[%d] = %g is negative", i, take)
		}
		if limit := o.requesterCap(v, i, requester); take > limit+tol {
			return fmt.Errorf("take[%d] = %g exceeds per-source cap U = %g (eq. 4)", i, take, limit)
		}
		newV[i] = v[i] - take
		sum += take
	}
	if math.Abs(sum-amount) > tol {
		return fmt.Errorf("Σ takes = %g, requested %g (eq. 5 conservation)", sum, amount)
	}
	// θ as reported must match the brute-force recomputation. The
	// allocator computes it from its own (possibly buggy) coefficients, so
	// a mutated transitive layer shows up here even when the LP is fine.
	ref := o.RealizedTheta(v, newV, requester)
	if math.Abs(ref-a.Theta) > 1e-6*scale {
		return fmt.Errorf("reported θ = %g, oracle recomputes %g", a.Theta, ref)
	}
	return nil
}

// PlanTheta solves the allocation problem with an independently
// constructed LP — the substituted formulation written straight from the
// printed equations, built fresh per call (no reused workspace, no folded
// right-hand sides) and solved with RefSolve rather than the allocator's
// tableau — then returns the brute-force realized θ of its
// solution. Within tolerance this is the true minimum perturbation for the
// request.
func (o *Oracle) PlanTheta(v []float64, requester int, amount float64) (float64, error) {
	n := o.g.N
	m := lp.NewModel(lp.Minimize)
	vp := make([]lp.VarID, n)
	for i := 0; i < n; i++ {
		lo := v[i] - o.requesterCap(v, i, requester)
		if lo < 0 {
			lo = 0
		}
		vp[i] = m.AddVar(fmt.Sprintf("V'_%d", i), lo, v[i], 0)
	}
	theta := m.AddVar("theta", 0, lp.Inf, 1)

	var totalV float64
	sumTerms := make([]lp.Term, n)
	for i := 0; i < n; i++ {
		totalV += v[i]
		sumTerms[i] = lp.Term{Var: vp[i], Coeff: 1}
	}
	m.AddConstraint("consume", sumTerms, lp.EQ, totalV-amount)

	caps := o.Capacities(v)
	for i := 0; i < n; i++ {
		if i == requester {
			continue
		}
		terms := []lp.Term{{Var: vp[i], Coeff: 1}, {Var: theta, Coeff: 1}}
		for k := 0; k < n; k++ {
			if k == i {
				continue
			}
			if o.g.A != nil && o.g.A[k][i] > 0 {
				// min(V'_k·K_ki + A_ki, V'_k) linearized through an
				// auxiliary u bounded by both arms; the ≥ row lets the
				// solver push u to the min, so feasibility is exact.
				u := m.AddVar(fmt.Sprintf("u_%d_%d", k, i), 0, lp.Inf, 0)
				m.AddConstraint(fmt.Sprintf("uflow_%d_%d", k, i),
					[]lp.Term{{Var: u, Coeff: 1}, {Var: vp[k], Coeff: -o.K[k][i]}}, lp.LE, o.g.A[k][i])
				m.AddConstraint(fmt.Sprintf("uown_%d_%d", k, i),
					[]lp.Term{{Var: u, Coeff: 1}, {Var: vp[k], Coeff: -1}}, lp.LE, 0)
				terms = append(terms, lp.Term{Var: u, Coeff: 1})
			} else if !num.IsZero(o.K[k][i]) {
				terms = append(terms, lp.Term{Var: vp[k], Coeff: o.K[k][i]})
			}
		}
		m.AddConstraint(fmt.Sprintf("perturb_%d", i), terms, lp.GE, caps[i])
	}

	sol, err := RefSolve(m)
	if err != nil {
		return 0, fmt.Errorf("reference LP: %w", err)
	}
	newV := make([]float64, n)
	for i := 0; i < n; i++ {
		nv := sol.Values[vp[i]]
		newV[i] = math.Min(math.Max(nv, 0), v[i])
	}
	return o.RealizedTheta(v, newV, requester), nil
}
