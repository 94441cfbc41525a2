package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/lp"
)

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (tol %g)", what, got, want, tol)
	}
}

// solveText parses and solves src, failing the test on any error.
func solveText(t *testing.T, src string) (*lp.Model, *lp.Solution) {
	t.Helper()
	m, err := parseModel(strings.NewReader(src))
	if err != nil {
		t.Fatalf("parseModel: %v", err)
	}
	sol, err := m.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return m, sol
}

func TestParseModelBasic(t *testing.T) {
	m, sol := solveText(t, `
# sample problem
min: 2 x + 3 y
c1: x + y >= 4
c2: x - y <= 2
`)
	if m.NumVars() != 2 || m.NumConstraints() != 2 {
		t.Fatalf("got %d vars, %d cons; want 2, 2", m.NumVars(), m.NumConstraints())
	}
	almost(t, sol.Objective, 9, 1e-7, "objective") // x=3, y=1 -> 9
}

func TestParseModelMaxAndBounds(t *testing.T) {
	_, sol := solveText(t, `
max: x + 2y
cap: x + y <= 10
0 <= x <= 4
y <= 7
`)
	// y=7, x=3 -> 17.
	almost(t, sol.Objective, 17, 1e-7, "objective")
}

func TestParseModelFreeVariable(t *testing.T) {
	_, sol := solveText(t, `
min: z
free z
lb: z >= -12
`)
	almost(t, sol.Objective, -12, 1e-7, "objective")
}

func TestParseModelGluedCoefficients(t *testing.T) {
	_, sol := solveText(t, `
min: 2x + 0.5y
c: 3x + 2y >= 6
`)
	// Cheapest per unit of constraint: y (0.5/2=0.25) vs x (2/3). y=3 -> 1.5.
	almost(t, sol.Objective, 1.5, 1e-7, "objective")
}

func TestParseModelEquality(t *testing.T) {
	_, sol := solveText(t, `
min: x + y
e: x + y = 9
`)
	almost(t, sol.Objective, 9, 1e-7, "objective")
}

// malformedInputs are refused for their shape.
var malformedInputs = []struct{ name, src string }{
	{"no objective", "c: x >= 1\n"},
	{"duplicate objective", "min: x\nmin: y\n"},
	{"bad rhs", "min: x\nc: x >= banana\n"},
	{"no relation", "min: x\nc: x 4\n"},
	{"bad bounds", "min: x\nq <= r\n"},
	{"constraint before objective", "free x\n"},
	{"no variable", "min:\nc: >= -1\n"},
}

func TestParseModelErrors(t *testing.T) {
	for _, tc := range malformedInputs {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := parseModel(strings.NewReader(tc.src)); err == nil {
				t.Errorf("parseModel(%q) succeeded, want error", tc.src)
			}
		})
	}
}

// unbuildableInputs hold a value lp's builder panics on; the parser must
// refuse each at the line it names.
var unbuildableInputs = []struct {
	name, src string
	line      int
}{
	{"crossed bounds", "min: x\n5 <= x <= 2\n", 2},
	{"upper bound below the default lower", "min: x\nx <= -1\n", 2},
	{"NaN upper bound", "min: x\nx <= nan\n", 2},
	{"NaN lower bound", "min: x\nNaN <= x\n", 2},
	{"infinite lower bound", "min: x\ninf <= x\n", 2},
	{"NaN right-hand side", "min: x\nc1: x >= nan\n", 2},
	{"infinite right-hand side", "min: x\nc1: x >= -Inf\n", 2},
	{"NaN coefficient", "min: x\nc1: nan x >= 1\n", 2},
	{"NaN objective term", "# costs\nmin: NaN*x + y\n", 2},
	{"overflowing coefficient", "min: x\nc1: 1e999 x >= 1\n", 2},
	{"overflowing objective sum", "max: 1e308 x + 1e308 x\n", 1},
}

func TestParseModelRefusesUnbuildableInput(t *testing.T) {
	for _, tc := range unbuildableInputs {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseModel(strings.NewReader(tc.src))
			if want := fmt.Sprintf("line %d: ", tc.line); err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("parseModel(%q) = %v, want an error starting %q", tc.src, err, want)
			}
			var stdout, stderr bytes.Buffer
			if code := run(nil, strings.NewReader(tc.src), &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), err.Error()) {
				t.Fatalf("lpsolve exited %d, stderr %q; want 1 and %q", code, stderr.String(), err.Error())
			}
		})
	}
}

// TestParseExprExponents: a coefficient is read whole before the
// expression is split on signs, so an exponent's sign stays in it.
func TestParseExprExponents(t *testing.T) {
	for _, tc := range []struct {
		expr  string
		coeff float64
		name  string
	}{
		{"2e-3 x", 0.002, "x"},
		{"1.5E+2x", 150, "x"},
		{"-4e-1*y", -0.4, "y"},
		{"- 2.5e1 * z", -25, "z"},
	} {
		terms, err := parseExpr(tc.expr)
		if err != nil || len(terms) != 1 || terms[0].name != tc.name {
			t.Errorf("parseExpr(%q) = %v, %v; want one term on %s", tc.expr, terms, err, tc.name)
			continue
		}
		almost(t, terms[0].coeff, tc.coeff, 0, tc.expr)
	}
	for _, bad := range []string{"2e", "2e x", "3E+y", "x + 3", "x -", "2 3 x", "x * y"} {
		if terms, err := parseExpr(bad); err == nil {
			t.Errorf("parseExpr(%q) = %v, want an error", bad, terms)
		}
	}
}

// exponentModels solve alike: the exponent form of 0.002 is 0.002.
var exponentModels = []string{
	"min: 2e-3 x + y\nc1: x + y >= 4\n",
	"min: 0.002 x + y\nc1: x + y >= 4\n",
}

func TestParseModelSignedExponent(t *testing.T) {
	var out [2]bytes.Buffer
	for i, src := range exponentModels {
		m, sol := solveText(t, src)
		almost(t, sol.Objective, 0.008, 1e-15, "objective")
		almost(t, sol.Value(0), 4, 0, "x")
		almost(t, sol.Value(1), 0, 0, "y")
		if err := writeSolution(&out[i], m, sol); err != nil {
			t.Fatal(err)
		}
	}
	if out[0].String() != out[1].String() {
		t.Errorf("2e-3 x solves to\n%s0.002 x to\n%s", out[0].String(), out[1].String())
	}
}

func TestWriteSolution(t *testing.T) {
	m := lp.NewModel(lp.Minimize)
	x := m.AddVar("x", 0, lp.Inf, 1)
	m.AddConstraint("c", []lp.Term{{Var: x, Coeff: 1}}, lp.GE, 3)
	sol, err := m.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	var buf bytes.Buffer
	if err := writeSolution(&buf, m, sol); err != nil {
		t.Fatalf("writeSolution: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "x = 3") || !strings.Contains(out, "objective = 3") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestParseExprSigns(t *testing.T) {
	terms, err := parseExpr("-x + 2 y - 3*z")
	if err != nil {
		t.Fatalf("parseExpr: %v", err)
	}
	want := map[string]float64{"x": -1, "y": 2, "z": -3}
	if len(terms) != 3 {
		t.Fatalf("got %d terms, want 3", len(terms))
	}
	for _, tm := range terms {
		almost(t, tm.coeff, want[tm.name], 0, "term "+tm.name)
	}
}

// FuzzParseModel: any input is refused, or parses to a model that Solve
// answers with an optimum or an lp error. Nothing panics.
func FuzzParseModel(f *testing.F) {
	f.Add("min: 2 x + 3 y\nc1: x + y >= 4\nc2: x - y <= 2\n0 <= x <= 10\nfree y\n")
	for _, tc := range malformedInputs {
		f.Add(tc.src)
	}
	for _, tc := range unbuildableInputs {
		f.Add(tc.src)
	}
	for _, src := range exponentModels {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := parseModel(strings.NewReader(src))
		if err != nil {
			return
		}
		sol, err := m.Solve()
		switch {
		case err == nil:
			if err := writeSolution(io.Discard, m, sol); err != nil {
				t.Fatal(err)
			}
		case !errors.Is(err, lp.ErrInfeasible) && !errors.Is(err, lp.ErrUnbounded) && !errors.Is(err, lp.ErrIterationLimit):
			t.Fatalf("Solve of a parsed model: %v", err)
		}
	})
}
