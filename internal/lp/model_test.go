package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/num"
)

// refMerge is AddConstraint's merge as it was when every call made a map:
// duplicates accumulate at the first occurrence's place, terms that are or
// cancel to zero are dropped, and a bad term panics with the message the
// model still gives. It is the reference the arena-and-stamp merge is
// checked against.
func refMerge(name string, nVars int, varName func(VarID) string, terms []Term, rhs float64) []Term {
	if math.IsNaN(rhs) {
		panic(fmt.Sprintf("lp: AddConstraint(%q): NaN right-hand side", name))
	}
	merged := make(map[VarID]float64, len(terms))
	order := make([]VarID, 0, len(terms))
	for _, t := range terms {
		if t.Var < 0 || int(t.Var) >= nVars {
			panic(fmt.Sprintf("lp: AddConstraint(%q): unknown variable %d", name, t.Var))
		}
		if math.IsNaN(t.Coeff) {
			panic(fmt.Sprintf("lp: AddConstraint(%q): NaN coefficient for %s", name, varName(t.Var)))
		}
		if _, seen := merged[t.Var]; !seen {
			order = append(order, t.Var)
		}
		merged[t.Var] += t.Coeff
	}
	clean := make([]Term, 0, len(order))
	for _, v := range order {
		if c := merged[v]; !num.IsZero(c) {
			clean = append(clean, Term{Var: v, Coeff: c})
		}
	}
	return clean
}

// panicOf runs fn and returns what it panicked with, "" if it returned.
func panicOf(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// sameTerms compares term lists bit for bit (a merged −0 is not a +0).
func sameTerms(a, b []Term) bool {
	return slices.EqualFunc(a, b, func(x, y Term) bool {
		return x.Var == y.Var && math.Float64bits(x.Coeff) == math.Float64bits(y.Coeff)
	})
}

// TestAddConstraintMergeMatchesReference drives random rows — duplicates,
// explicit zeros, exact cancellations, negative zeros, and now and then an
// unknown variable, a NaN coefficient or a NaN right-hand side — through
// AddConstraint on models with and without reserved room, and checks every
// stored row, and every panic, against the map-based reference. A panic
// must leave the model as it was: the rows after it are checked too.
func TestAddConstraintMergeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	coeffs := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 3, 0.1, 0.2, -0.3, 1e-300, math.Inf(1)}
	rows, merges, drops, panics := 0, 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		m := NewModel(Minimize)
		if trial%2 == 0 {
			m.Reserve(4, 3, 10) // too little on purpose for most trials: rows spill into later chunks
		}
		nVars := 1 + rng.Intn(9)
		for v := 0; v < nVars; v++ {
			m.AddVar(fmt.Sprintf("x%d", v), 0, 1, 0)
		}
		var want [][]Term
		for r, nRows := 0, 1+rng.Intn(12); r < nRows; r++ {
			if r == nRows/2 {
				m.AddVar("late", 0, 1, 0) // the stamp scratch grows with the variables
				nVars++
			}
			terms := make([]Term, rng.Intn(3*nVars))
			for k := range terms {
				terms[k] = Term{Var: VarID(rng.Intn(nVars)), Coeff: coeffs[rng.Intn(len(coeffs))]}
				if k > 0 && rng.Intn(4) == 0 {
					terms[k] = Term{Var: terms[k-1].Var, Coeff: -terms[k-1].Coeff} // an exact cancellation
				}
			}
			rhs := float64(r)
			switch rng.Intn(25) {
			case 0:
				rhs = math.NaN()
			case 1:
				terms = append(terms, Term{Var: VarID(nVars + rng.Intn(3)), Coeff: 1})
			case 2:
				terms = append(terms, Term{Var: -1, Coeff: 1})
			case 3:
				terms = append(terms, Term{Var: VarID(rng.Intn(nVars)), Coeff: math.NaN()})
			}
			name := fmt.Sprintf("row%d", r)
			var ref []Term
			wantPanic := panicOf(func() { ref = refMerge(name, nVars, m.VarName, terms, rhs) })
			given := slices.Clone(terms)
			gotPanic := panicOf(func() { m.AddConstraint(name, terms, GE, rhs) })
			if gotPanic != wantPanic {
				t.Fatalf("trial %d row %d terms %v: panic %q, reference %q", trial, r, terms, gotPanic, wantPanic)
			}
			if !sameTerms(terms, given) {
				t.Fatalf("trial %d row %d: AddConstraint rewrote its argument: %v, was %v", trial, r, terms, given)
			}
			if wantPanic != "" {
				panics++
				continue
			}
			want = append(want, ref)
			merges += len(terms) - len(ref)
			for _, tm := range ref {
				if num.IsZero(tm.Coeff) {
					t.Fatalf("reference kept a zero: %v", ref)
				}
			}
			if len(ref) < len(terms) {
				drops++
			}
		}
		if m.NumConstraints() != len(want) {
			t.Fatalf("trial %d: %d rows stored, want %d", trial, m.NumConstraints(), len(want))
		}
		for r, c := range m.cons {
			rows++
			if !sameTerms(c.terms, want[r]) {
				t.Fatalf("trial %d row %d holds %v, reference %v", trial, r, c.terms, want[r])
			}
			if cap(c.terms) != len(c.terms) {
				t.Fatalf("trial %d row %d: view has cap %d beyond its %d terms", trial, r, cap(c.terms), len(c.terms))
			}
		}
		for v, at := range m.seen {
			if at != 0 {
				t.Fatalf("trial %d: stamp of variable %d left at %d", trial, v, at)
			}
		}
	}
	if rows < 1000 || drops < 200 || panics < 50 {
		t.Fatalf("weak run: %d rows, %d with merged or dropped terms, %d panics", rows, drops, panics)
	}
	t.Logf("%d rows equal the reference (%d terms merged or dropped), %d panics equal", rows, merges, panics)
}

// TestCloneAddConstraintLeavesParentRows adds rows to a clone and to its
// parent in turn and checks neither ever changes a row the other holds:
// the clone copies the parent's rows and lays its own into a chunk of its
// own, whatever room the parent's arena has left.
func TestCloneAddConstraintLeavesParentRows(t *testing.T) {
	for _, reserve := range []int{0, 6, 1000} {
		parent := NewModel(Minimize)
		parent.Reserve(4, 8, reserve)
		var vs []VarID
		for v := 0; v < 4; v++ {
			vs = append(vs, parent.AddVar("", 0, 10, 1))
		}
		parent.NameWith(func(v VarID) string { return fmt.Sprintf("v%d", v) }, func(r int) string { return fmt.Sprintf("r%d", r) })
		parent.AddConstraint("", []Term{{vs[0], 1}, {vs[1], 2}}, LE, 4)
		parent.AddConstraint("", []Term{{vs[2], 3}, {vs[3], 4}, {vs[2], 1}}, GE, 1)
		before := parent.String()

		clone := parent.Clone()
		clone.AddConstraint("", []Term{{vs[0], 7}, {vs[1], 7}, {vs[2], 7}}, LE, 70)
		clone.AddConstraint("", []Term{{vs[3], 9}}, LE, 9)
		if got := parent.String(); got != before {
			t.Fatalf("reserve %d: rows added to the clone changed the parent:\n%s\nwas\n%s", reserve, got, before)
		}
		cloned := clone.String()
		if !strings.HasPrefix(cloned, strings.SplitAfter(before, "[r1]\n")[0]) {
			t.Fatalf("reserve %d: the clone does not start with the parent's rows:\n%s\nparent\n%s", reserve, cloned, before)
		}
		parent.AddConstraint("", []Term{{vs[1], 5}, {vs[0], 5}}, GE, 5)
		parent.AddConstraint("", []Term{{vs[2], 6}}, GE, 6)
		if got := clone.String(); got != cloned {
			t.Fatalf("reserve %d: rows added to the parent changed the clone:\n%s\nwas\n%s", reserve, got, cloned)
		}
		if !strings.Contains(clone.String(), "7*v0 + 7*v1 + 7*v2 <= 70  [r2]") || !strings.Contains(parent.String(), "5*v1 + 5*v0 >= 5  [r2]") {
			t.Fatalf("reserve %d: row 2 of clone and parent:\n%s\n%s", reserve, clone, parent)
		}
		// A solve reads what the strings show.
		if _, err := clone.Solve(); err != nil {
			t.Fatalf("reserve %d: clone: %v", reserve, err)
		}
		if _, err := parent.Solve(); err != nil {
			t.Fatalf("reserve %d: parent: %v", reserve, err)
		}
	}
}

// TestCloneRebindsAlone rewrites every number of a clone — bounds, objective
// coefficients, right-hand sides and each stored term — into another model's:
// the clone then renders and solves as that model does, and the parent it
// was cloned from is untouched.
func TestCloneRebindsAlone(t *testing.T) {
	build := func(scale float64) *Model {
		m := NewModel(Maximize)
		x := m.AddVar("x", 0, 4*scale, 1*scale)
		y := m.AddVar("y", 0, 3, 2)
		m.AddConstraint("c0", []Term{{x, 1 * scale}, {y, 2}, {x, 1}}, LE, 6*scale) // x's terms merge
		m.AddConstraint("c1", []Term{{y, 3 * scale}, {x, 0}}, GE, scale)           // the zero is dropped
		return m
	}
	parent, want := build(1), build(2)
	before := parent.String()
	clone := parent.Clone()
	for v := VarID(0); v < VarID(want.NumVars()); v++ {
		lo, hi := want.Bounds(v)
		clone.SetBounds(v, lo, hi)
		clone.SetObj(v, want.ObjCoeff(v))
	}
	for i := 0; i < want.NumConstraints(); i++ {
		terms, _, rhs := want.Constraint(i)
		for k, term := range terms {
			clone.SetCoeff(i, k, term.Coeff)
		}
		clone.SetRHS(i, rhs)
	}
	if got := clone.String(); got != want.String() {
		t.Fatalf("rebound clone renders\n%s\nwant\n%s", got, want)
	}
	if got := parent.String(); got != before {
		t.Fatalf("rebinding the clone changed its parent:\n%s\nwas\n%s", got, before)
	}
	got, err := clone.Solve()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := want.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Values(), got.Objective) != fmt.Sprint(ref.Values(), ref.Objective) {
		t.Fatalf("rebound clone solves to %v %v, the model it was rebound to %v %v", got.Values(), got.Objective, ref.Values(), ref.Objective)
	}
}

// TestOnDemandNames checks that a model built without names answers with
// NameWith's wherever a name shows — VarName, ConstraintName, String, the
// rebinding panics — that a given name wins over them,
// and that a model with neither still renders.
func TestOnDemandNames(t *testing.T) {
	m := NewModel(Maximize)
	x := m.AddVar("", 0, 4, 1)
	y := m.AddVar("given", 0, 4, 2)
	m.AddConstraint("", []Term{{x, 1}, {y, 1}}, LE, 5)
	m.AddConstraint("cap", []Term{{y, 1}}, LE, 3)
	if got := m.String(); !strings.Contains(got, "1* + 2*given") || !strings.Contains(got, "[]") {
		t.Fatalf("a model without NameWith should render empty names:\n%s", got)
	}
	m.NameWith(func(v VarID) string { return fmt.Sprintf("V'_%d", v+40) }, func(r int) string { return fmt.Sprintf("perturb_%d", r+40) })
	if m.VarName(x) != "V'_40" || m.VarName(y) != "given" || m.ConstraintName(0) != "perturb_40" || m.ConstraintName(1) != "cap" {
		t.Fatalf("names %q %q %q %q", m.VarName(x), m.VarName(y), m.ConstraintName(0), m.ConstraintName(1))
	}
	want := "maximize 1*V'_40 + 2*given\nsubject to\n  1*V'_40 + 1*given <= 5  [perturb_40]\n  1*given <= 3  [cap]\n  0 <= V'_40 <= 4\n  0 <= given <= 4\n"
	if got := m.Clone().String(); got != want {
		t.Fatalf("a clone renders\n%s\nwant\n%s", got, want)
	}
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(sol.Values(), sol.Objective); got != "[2 3] 8" {
		t.Fatalf("solution %s", got)
	}
	for msg, fn := range map[string]func(){
		`lp: SetBounds("V'_40"): NaN bound`:                           func() { m.SetBounds(x, math.NaN(), 1) },
		`lp: SetBounds("V'_40"): lower bound 2 exceeds upper bound 1`: func() { m.SetBounds(x, 2, 1) },
		`lp: SetRHS("perturb_40"): NaN right-hand side`:               func() { m.SetRHS(0, math.NaN()) },
		`lp: SetObj("V'_40"): NaN objective`:                          func() { m.SetObj(x, math.NaN()) },
		`lp: SetCoeff("perturb_40"): NaN coefficient`:                 func() { m.SetCoeff(0, 1, math.NaN()) },
		`lp: AddConstraint("late"): NaN coefficient for V'_40`:        func() { m.AddConstraint("late", []Term{{x, math.NaN()}}, LE, 0) },
		`lp: AddConstraint("late"): unknown variable 2`:               func() { m.AddConstraint("late", []Term{{2, 1}}, LE, 0) },
		`lp: AddVar("z"): lower bound 3 exceeds upper bound 1`:        func() { m.AddVar("z", 3, 1, 0) },
		`lp: Eval: point has 1 entries, model has 2 variables`:        func() { m.Eval([]float64{1}) },
		`lp: AddConstraint("late"): NaN right-hand side`:              func() { m.AddConstraint("late", nil, LE, math.NaN()) },
	} {
		if got := panicOf(fn); got != msg {
			t.Errorf("panic %q, want %q", got, msg)
		}
	}
}

func TestModelString(t *testing.T) {
	m := NewModel(Maximize)
	x := m.AddVar("x", 0, 5, 2)
	m.AddConstraint("c", []Term{{x, 1}}, LE, 4)
	s := m.String()
	for _, want := range []string{"maximize", "2*x", "<= 4", "[c]"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}
