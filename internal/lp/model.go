package lp

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/num"
)

// Inf is the canonical "no bound" value for variable bounds.
var Inf = math.Inf(1)

// Sense selects the optimization direction of a Model.
type Sense int

const (
	// Minimize the objective function.
	Minimize Sense = iota
	// Maximize the objective function.
	Maximize
)

// String returns "minimize" or "maximize".
func (s Sense) String() string {
	if s == Maximize {
		return "maximize"
	}
	return "minimize"
}

// Relation is the comparison operator of a linear constraint.
type Relation int

const (
	// LE is a "less than or equal" (<=) constraint.
	LE Relation = iota
	// GE is a "greater than or equal" (>=) constraint.
	GE
	// EQ is an equality (=) constraint.
	EQ
)

// String returns the operator symbol for the relation.
func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	default:
		return "="
	}
}

// VarID identifies a variable within a Model. It is the zero-based index
// returned by AddVar.
type VarID int

// Term is one coefficient*variable product of a linear expression.
type Term struct {
	Var   VarID
	Coeff float64
}

type variable struct {
	name string
	lo   float64
	hi   float64
	obj  float64
}

type constraint struct {
	name  string
	terms []Term
	rel   Relation
	rhs   float64
}

// Model is a mutable linear program. Construct one with NewModel, add
// variables and constraints, then call Solve. A Model is not safe for
// concurrent mutation; Solve does not mutate the model and may be called
// repeatedly.
type Model struct {
	sense Sense
	vars  []variable
	cons  []constraint
	// arena is the chunk rows' terms are laid into back to back, each row a
	// cap-limited view of it. A full chunk is left to its rows and a larger
	// one started, so no row ever moves.
	arena []Term
	// seen is AddConstraint's merge scratch: per variable, the 1-based
	// position of its term in the row being added; zero between calls.
	seen []int32
	// varName and rowName name what was added with an empty name (NameWith).
	varName func(VarID) string
	rowName func(int) string
}

// NewModel returns an empty model with the given optimization sense.
func NewModel(sense Sense) *Model {
	return &Model{sense: sense}
}

// Sense reports the optimization direction of the model.
func (m *Model) Sense() Sense { return m.sense }

// NumVars returns the number of variables added so far.
func (m *Model) NumVars() int { return len(m.vars) }

// NumConstraints returns the number of constraints added so far.
func (m *Model) NumConstraints() int { return len(m.cons) }

// AddVar adds a variable with bounds [lo, hi] and objective coefficient
// obj, returning its identifier. Use -lp.Inf / lp.Inf for unbounded sides.
// AddVar panics if lo > hi or either bound is NaN; modelling bugs of that
// kind are programmer errors, not runtime conditions.
func (m *Model) AddVar(name string, lo, hi, obj float64) VarID {
	if math.IsNaN(lo) || math.IsNaN(hi) || math.IsNaN(obj) {
		panic(fmt.Sprintf("lp: AddVar(%q): NaN bound or objective", name))
	}
	if lo > hi {
		panic(fmt.Sprintf("lp: AddVar(%q): lower bound %g exceeds upper bound %g", name, lo, hi))
	}
	m.vars = append(m.vars, variable{name: name, lo: lo, hi: hi, obj: obj})
	return VarID(len(m.vars) - 1)
}

// Reserve makes room for vars more variables and rows more constraints of
// terms terms in all (as passed to AddConstraint, before merging), so a
// builder that knows its sizes adds them without a reallocation.
func (m *Model) Reserve(vars, rows, terms int) {
	m.vars = slices.Grow(m.vars, vars)
	m.cons = slices.Grow(m.cons, rows)
	m.seen = slices.Grow(m.seen, len(m.vars)+vars-len(m.seen))
	if cap(m.arena)-len(m.arena) < terms {
		m.arena = make([]Term, 0, terms)
	}
}

// NameWith installs the functions that name, on demand, what was added with
// an empty name: a model built on a hot path formats no string until one is
// asked for (VarName, ConstraintName, String, a panic). Clones share them.
func (m *Model) NameWith(varName func(VarID) string, rowName func(int) string) {
	m.varName, m.rowName = varName, rowName
}

// SetBounds replaces the bounds of v, with the same validation as AddVar.
// Together with SetRHS, SetObj, SetCoeff and Clone it supports the
// skeleton-rebinding pattern: build the constraint structure once, then per
// solve only rebind the numbers.
func (m *Model) SetBounds(v VarID, lo, hi float64) {
	if math.IsNaN(lo) || math.IsNaN(hi) {
		panic(fmt.Sprintf("lp: SetBounds(%q): NaN bound", m.VarName(v)))
	}
	if lo > hi {
		panic(fmt.Sprintf("lp: SetBounds(%q): lower bound %g exceeds upper bound %g", m.VarName(v), lo, hi))
	}
	m.vars[v].lo, m.vars[v].hi = lo, hi
}

// SetRHS replaces the right-hand side of constraint row i.
func (m *Model) SetRHS(i int, rhs float64) {
	if math.IsNaN(rhs) {
		panic(fmt.Sprintf("lp: SetRHS(%q): NaN right-hand side", m.ConstraintName(i)))
	}
	m.cons[i].rhs = rhs
}

// SetObj replaces the objective coefficient of v.
func (m *Model) SetObj(v VarID, obj float64) {
	if math.IsNaN(obj) {
		panic(fmt.Sprintf("lp: SetObj(%q): NaN objective", m.VarName(v)))
	}
	m.vars[v].obj = obj
}

// SetCoeff replaces the coefficient of the k-th term of row i, counted in
// the order Constraint returns them: what AddConstraint kept, merged
// duplicates at their first place. The term keeps its variable, and a zero
// coefficient stays stored.
func (m *Model) SetCoeff(i, k int, coeff float64) {
	if math.IsNaN(coeff) {
		panic(fmt.Sprintf("lp: SetCoeff(%q): NaN coefficient", m.ConstraintName(i)))
	}
	m.cons[i].terms[k].Coeff = coeff
}

// Clone returns a model that shares its names and namers with the receiver
// and owns everything else — variables, constraints and their terms, copied
// into one arena — so bounds, objective coefficients, right-hand sides and
// term coefficients can be rebound on either without the other seeing it.
// AddVar/AddConstraint on the clone are safe: its new rows go into a chunk of
// its own.
func (m *Model) Clone() *Model {
	out := &Model{sense: m.sense, varName: m.varName, rowName: m.rowName}
	out.vars = append(make([]variable, 0, len(m.vars)), m.vars...)
	out.cons = append(make([]constraint, 0, len(m.cons)), m.cons...)
	size := 0
	for _, c := range m.cons {
		size += len(c.terms)
	}
	out.arena = make([]Term, 0, size)
	for i, c := range m.cons {
		start := len(out.arena)
		out.arena = append(out.arena, c.terms...)
		out.cons[i].terms = out.arena[start:len(out.arena):len(out.arena)]
	}
	return out
}

// VarName returns the name v was registered with, NameWith's if that is empty.
func (m *Model) VarName(v VarID) string {
	if name := m.vars[v].name; name != "" || m.varName == nil {
		return name
	}
	return m.varName(v)
}

// Bounds returns the lower and upper bound of v.
func (m *Model) Bounds(v VarID) (lo, hi float64) {
	return m.vars[v].lo, m.vars[v].hi
}

// ObjCoeff returns the objective coefficient of v.
func (m *Model) ObjCoeff(v VarID) float64 { return m.vars[v].obj }

// Constraint returns row i as AddConstraint left it: its merged terms, its
// relation and its right-hand side. The terms are a view of the model's
// own storage, for reading only.
func (m *Model) Constraint(i int) (terms []Term, rel Relation, rhs float64) {
	c := &m.cons[i]
	return c.terms, c.rel, c.rhs
}

// AddConstraint adds the linear constraint sum(terms) rel rhs and returns
// its zero-based row index. Terms referencing the same variable accumulate
// at the first one's place; terms that are or cancel to zero are dropped. It
// panics on unknown variables or NaN coefficients, before writing anything.
func (m *Model) AddConstraint(name string, terms []Term, rel Relation, rhs float64) int {
	if math.IsNaN(rhs) {
		panic(fmt.Sprintf("lp: AddConstraint(%q): NaN right-hand side", name))
	}
	for _, t := range terms {
		if t.Var < 0 || int(t.Var) >= len(m.vars) {
			panic(fmt.Sprintf("lp: AddConstraint(%q): unknown variable %d", name, t.Var))
		}
		if math.IsNaN(t.Coeff) {
			panic(fmt.Sprintf("lp: AddConstraint(%q): NaN coefficient for %s", name, m.VarName(t.Var)))
		}
	}
	if cap(m.arena)-len(m.arena) < len(terms) {
		m.arena = make([]Term, 0, max(len(terms), 2*cap(m.arena)))
	}
	m.seen = slices.Grow(m.seen, len(m.vars)-len(m.seen))[:len(m.vars)]
	start := len(m.arena)
	row := m.arena[start:start]
	for _, t := range terms {
		if at := m.seen[t.Var]; at != 0 {
			row[at-1].Coeff += t.Coeff
		} else {
			row = append(row, t)
			m.seen[t.Var] = int32(len(row))
		}
	}
	kept := 0
	for _, t := range row {
		m.seen[t.Var] = 0
		if !num.IsZero(t.Coeff) {
			row[kept] = t
			kept++
		}
	}
	m.arena = m.arena[:start+kept]
	m.cons = append(m.cons, constraint{name: name, terms: row[:kept:kept], rel: rel, rhs: rhs})
	return len(m.cons) - 1
}

// ConstraintName returns the name of row i, NameWith's if it was added with none.
func (m *Model) ConstraintName(i int) string {
	if name := m.cons[i].name; name != "" || m.rowName == nil {
		return name
	}
	return m.rowName(i)
}

// Eval computes the value of the objective function at the given point.
// The point must have one entry per variable.
func (m *Model) Eval(point []float64) float64 {
	if len(point) != len(m.vars) {
		panic(fmt.Sprintf("lp: Eval: point has %d entries, model has %d variables", len(point), len(m.vars)))
	}
	var z float64
	for i, v := range m.vars {
		z += v.obj * point[i]
	}
	return z
}

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

// String renders the model in a human-readable algebraic form, mainly for
// debugging and error reports.
func (m *Model) String() string {
	var b strings.Builder
	b.WriteString(m.sense.String() + " ")
	first := true
	for i, v := range m.vars {
		if num.IsZero(v.obj) {
			continue
		}
		if !first {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "%g*%s", v.obj, m.VarName(VarID(i)))
		first = false
	}
	if first {
		b.WriteByte('0')
	}
	b.WriteString("\nsubject to\n")
	for i, c := range m.cons {
		b.WriteString("  ")
		for k, t := range c.terms {
			if k > 0 {
				b.WriteString(" + ")
			}
			fmt.Fprintf(&b, "%g*%s", t.Coeff, m.VarName(t.Var))
		}
		if len(c.terms) == 0 {
			b.WriteByte('0')
		}
		fmt.Fprintf(&b, " %s %g  [%s]\n", c.rel, c.rhs, m.ConstraintName(i))
	}
	for i, v := range m.vars {
		fmt.Fprintf(&b, "  %g <= %s <= %g\n", v.lo, m.VarName(VarID(i)), v.hi)
	}
	return b.String()
}
