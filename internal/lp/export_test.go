package lp

import "math"

// The test LP builders, for bounded_test.go: it is package lp_test because
// it imports modeltest, which imports lp.
var (
	RandomFeasibleLP = randomFeasibleLP
	BenchLP          = benchLP
	SchedulerShapeLP = schedulerShapeLP
)

// Feasible reports whether the point satisfies every constraint and bound
// within tolerance tol.
func (m *Model) Feasible(point []float64, tol float64) bool {
	return m.violation(point) <= tol
}

// violation returns the largest constraint or bound violation at point.
func (m *Model) violation(point []float64) float64 {
	worst := 0.0
	for i, v := range m.vars {
		if point[i] < v.lo {
			worst = math.Max(worst, v.lo-point[i])
		}
		if point[i] > v.hi {
			worst = math.Max(worst, point[i]-v.hi)
		}
	}
	for _, c := range m.cons {
		var lhs float64
		for _, t := range c.terms {
			lhs += t.Coeff * point[t.Var]
		}
		switch c.rel {
		case LE:
			worst = math.Max(worst, lhs-c.rhs)
		case GE:
			worst = math.Max(worst, c.rhs-lhs)
		case EQ:
			worst = math.Max(worst, math.Abs(lhs-c.rhs))
		}
	}
	return worst
}
