package lp

import (
	"errors"
	"fmt"
)

// Status is the outcome of a Solve call.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraint system has no feasible point.
	Infeasible
	// Unbounded means the objective can be improved without limit.
	Unbounded
	// IterationLimit means the simplex exceeded its iteration budget.
	IterationLimit
)

// String returns the lowercase name of the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// ErrInfeasible is returned (wrapped) by Solve when no feasible point
// exists.
var ErrInfeasible = errors.New("lp: infeasible")

// ErrUnbounded is returned (wrapped) by Solve when the objective is
// unbounded in the optimization direction.
var ErrUnbounded = errors.New("lp: unbounded")

// ErrIterationLimit is returned (wrapped) by Solve when the pivot budget is
// exhausted, which in practice indicates numerical trouble.
var ErrIterationLimit = errors.New("lp: iteration limit exceeded")

// Solution holds the result of solving a Model.
type Solution struct {
	// Status is Optimal for successful solves. Solve returns a non-nil
	// error for every other status, but the partial Solution is still
	// populated with whatever the solver knew.
	Status Status
	// Objective is the optimal objective value in the model's own sense.
	Objective float64
	// values holds one entry per model variable.
	values []float64
	// duals holds one shadow price per constraint row (sign convention:
	// value by which the objective would improve per unit increase of the
	// row's right-hand side, in the model's sense).
	duals []float64
	// Pivots is the total number of simplex pivots across both phases.
	Pivots int
}

// Value returns the optimal value of variable v.
func (s *Solution) Value(v VarID) float64 {
	return s.values[v]
}

// Values returns a copy of all variable values indexed by VarID.
func (s *Solution) Values() []float64 {
	out := make([]float64, len(s.values))
	copy(out, s.values)
	return out
}

// Dual returns the shadow price of constraint row i.
func (s *Solution) Dual(i int) float64 {
	return s.duals[i]
}

// Duals returns a copy of all constraint shadow prices.
func (s *Solution) Duals() []float64 {
	out := make([]float64, len(s.duals))
	copy(out, s.duals)
	return out
}
