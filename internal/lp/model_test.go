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

// TestAddConstraintRecoversMidRow panics AddConstraint on a bad term after
// good ones have been merged — an unknown variable, then a NaN coefficient —
// and requires the next row over the same variables to merge as on a fresh
// model: the merge marks the refused row wrote are cleared before the panic.
func TestAddConstraintRecoversMidRow(t *testing.T) {
	for _, bad := range []Term{{Var: 7, Coeff: 1}, {Var: 1, Coeff: math.NaN()}} {
		m := NewModel(Minimize)
		x, y := m.AddVar("x", 0, 1, 0), m.AddVar("y", 0, 1, 0)
		if msg := panicOf(func() { m.AddConstraint("bad", []Term{{x, 1}, {y, 2}, bad, {x, 3}}, LE, 1) }); msg == "" {
			t.Fatalf("AddConstraint with %v did not panic", bad)
		}
		if m.NumConstraints() != 0 {
			t.Fatalf("a refused row was stored: %d rows", m.NumConstraints())
		}
		i := m.AddConstraint("good", []Term{{y, 1}, {x, 2}, {y, 4}}, LE, 1)
		if got, _, _ := m.Constraint(i); !sameTerms(got, []Term{{y, 5}, {x, 2}}) {
			t.Fatalf("after a panic on %v, the next row merged to %v, want [{y 5} {x 2}]", bad, got)
		}
	}
}

// TestResetRebuildsAlone builds one model, resets it and builds another,
// larger one into it, and back: each build renders and solves as a fresh
// model of the same content does, whatever the reset model held — its
// rows, their terms and its variables — and the rebuild of the smaller
// model allocates nothing.
func TestResetRebuildsAlone(t *testing.T) {
	build := func(m *Model, scale float64, extra int) {
		x := m.AddVar("x", 0, 4*scale, 1*scale)
		y := m.AddVar("y", 0, 3, 2)
		m.AddConstraint("c0", []Term{{x, 1 * scale}, {y, 2}, {x, 1}}, LE, 6*scale) // x's terms merge
		m.AddConstraint("c1", []Term{{y, 3 * scale}, {x, 0}}, GE, scale)           // the zero is dropped
		for e := 0; e < extra; e++ {
			z := m.AddVar(fmt.Sprintf("z%d", e), 0, 1, 0.5)
			m.AddConstraint(fmt.Sprintf("e%d", e), []Term{{z, 1}, {x, 0.25}, {y, float64(e)}}, LE, 5)
		}
	}
	fresh := func(scale float64, extra int) *Model {
		m := NewModel(Maximize)
		build(m, scale, extra)
		return m
	}
	m := NewModel(Maximize)
	for _, step := range []struct {
		scale float64
		extra int
	}{{1, 0}, {2, 3}, {1, 0}, {0.5, 2}} {
		m.Reset()
		build(m, step.scale, step.extra)
		want := fresh(step.scale, step.extra)
		if got := m.String(); got != want.String() {
			t.Fatalf("scale %v, %d extra rows: the rebuilt model renders\n%s\nwant\n%s", step.scale, step.extra, got, want)
		}
		got, err := m.Solve()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := want.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Values(), got.Objective) != fmt.Sprint(ref.Values(), ref.Objective) {
			t.Fatalf("scale %v, %d extra rows: the rebuilt model solves to %v %v, a fresh one %v %v", step.scale, step.extra, got.Values(), got.Objective, ref.Values(), ref.Objective)
		}
	}
	if got := testing.AllocsPerRun(10, func() { m.Reset(); build(m, 1, 0) }); got != 0 {
		t.Errorf("rebuilding a smaller model into a reset one makes %v allocations, want 0", got)
	}
}

// TestOnDemandNames checks that a model built without names answers with
// NameWith's wherever a name shows — VarName, ConstraintName, String, the
// panics — that a given name wins over them, that Reset keeps them, and
// that a model with neither still renders.
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
	if got := m.String(); got != want {
		t.Fatalf("the model renders\n%s\nwant\n%s", got, want)
	}
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(sol.Values(), sol.Objective); got != "[2 3] 8" {
		t.Fatalf("solution %s", got)
	}
	for msg, fn := range map[string]func(){
		`lp: SetRHS("perturb_40"): NaN right-hand side`:        func() { m.SetRHS(0, math.NaN()) },
		`lp: AddConstraint("late"): NaN coefficient for V'_40`: func() { m.AddConstraint("late", []Term{{x, math.NaN()}}, LE, 0) },
		`lp: AddConstraint("late"): unknown variable 2`:        func() { m.AddConstraint("late", []Term{{2, 1}}, LE, 0) },
		`lp: AddVar("z"): lower bound 3 exceeds upper bound 1`: func() { m.AddVar("z", 3, 1, 0) },
		`lp: Eval: point has 1 entries, model has 2 variables`: func() { m.Eval([]float64{1}) },
		`lp: AddConstraint("late"): NaN right-hand side`:       func() { m.AddConstraint("late", nil, LE, math.NaN()) },
	} {
		if got := panicOf(fn); got != msg {
			t.Errorf("panic %q, want %q", got, msg)
		}
	}
	m.Reset()
	m.AddVar("", 0, 1, 1)
	m.AddConstraint("", []Term{{0, 1}}, LE, 1)
	if m.VarName(0) != "V'_40" || m.ConstraintName(0) != "perturb_40" {
		t.Fatalf("after Reset: names %q %q, want NameWith's", m.VarName(0), m.ConstraintName(0))
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
