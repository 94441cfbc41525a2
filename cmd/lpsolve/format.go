package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/lp"
)

// parseModel reads a model from a small line-oriented text format:
//
//	# comments start with '#'
//	min: 2 x + 3 y          (or "max:")
//	supply: x + y >= 4      (named constraints, one per line)
//	limit:  x - 2 y <= 2
//	0 <= x <= 10            (bounds lines; either side optional)
//	free y                  (free variable declaration)
//
// Variables default to [0, +inf) and are created on first mention.
// Coefficients may be written "2x", "2*x", "2 x", or a bare "x"/" -x", with
// an exponent if need be ("2e-3 x", "1.5E+2x"); so a name glued to a
// coefficient may not start with e or E ("2*e" or "2 e" instead).
// Coefficients and right-hand sides are finite; a lower bound may be -inf
// and an upper bound inf. Input lp's builder would refuse — a NaN, bounds
// that cross — is an error naming its line, never a panic.
func parseModel(r io.Reader) (*lp.Model, error) {
	p := &parser{vars: map[string]int{}}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := p.line(lineNo, line); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read: %w", err)
	}
	if !p.haveObj {
		return nil, fmt.Errorf("no objective line (\"min:\" or \"max:\") found")
	}
	return p.build()
}

type parser struct {
	haveObj bool
	sense   lp.Sense
	objLine int
	obj     []parsedTerm
	vars    map[string]int // name → index in decl
	decl    []varDecl      // in order of first mention
	// constraints, added once every bound is known
	cons []parsedCons
}

// varDecl is what the input says about one variable.
type varDecl struct {
	name   string
	lo, hi float64 // lo as written where hasLo
	hasLo  bool    // else lo is 0, or -inf if free
	free   bool
	line   int // the last line that bounded or freed it
}

type parsedTerm struct {
	coeff float64
	name  string
}

type parsedCons struct {
	name  string
	terms []parsedTerm
	rel   lp.Relation
	rhs   float64
}

// hasPrefixFold reports whether s starts with the ASCII prefix, in any case.
func hasPrefixFold(s, prefix string) bool {
	return len(s) >= len(prefix) && strings.EqualFold(s[:len(prefix)], prefix)
}

func (p *parser) line(lineNo int, line string) error {
	switch {
	case hasPrefixFold(line, "min:"), hasPrefixFold(line, "max:"):
		if p.haveObj {
			return fmt.Errorf("duplicate objective line")
		}
		p.haveObj, p.objLine, p.sense = true, lineNo, lp.Minimize
		if hasPrefixFold(line, "max:") {
			p.sense = lp.Maximize
		}
		terms, err := parseExpr(line[len("min:"):])
		if err != nil {
			return err
		}
		p.obj = terms
		for _, t := range terms {
			p.declare(t.name)
		}
		return nil
	case hasPrefixFold(line, "free "):
		if !p.haveObj {
			return fmt.Errorf("objective line must come first")
		}
		for _, name := range strings.Fields(line[len("free "):]) {
			if !isName(name) {
				return fmt.Errorf("bad variable name %q", name)
			}
			d := &p.decl[p.declare(name)]
			d.free, d.line = true, lineNo
		}
		return nil
	}
	if !p.haveObj {
		return fmt.Errorf("objective line must come first")
	}
	// Bounds line? Pattern: [num <=] var [<= num] with no ':'.
	colon := strings.Index(line, ":")
	if colon < 0 {
		return p.boundsLine(lineNo, line)
	}
	name := strings.TrimSpace(line[:colon])
	rel, lhs, rhs, err := splitRelation(line[colon+1:])
	if err != nil {
		return err
	}
	terms, err := parseExpr(lhs)
	if err != nil {
		return err
	}
	val, err := parseFinite(strings.TrimSpace(rhs))
	if err != nil {
		return fmt.Errorf("right-hand side: %w", err)
	}
	for _, t := range terms {
		p.declare(t.name)
	}
	p.cons = append(p.cons, parsedCons{name: name, terms: terms, rel: rel, rhs: val})
	return nil
}

func (p *parser) boundsLine(lineNo int, line string) error {
	parts := strings.Split(line, "<=")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	var name, loS, hiS string
	hasLo, hasHi := true, true
	switch {
	case len(parts) == 2 && isName(parts[0]): // "x <= 5"
		name, hiS, hasLo = parts[0], parts[1], false
	case len(parts) == 2: // "0 <= x"
		loS, name, hasHi = parts[0], parts[1], false
	case len(parts) == 3: // "0 <= x <= 5"
		loS, name, hiS = parts[0], parts[1], parts[2]
	default:
		return fmt.Errorf("cannot parse line %q (missing ':'?)", line)
	}
	if !isName(name) {
		return fmt.Errorf("cannot parse bounds line %q", line)
	}
	d := &p.decl[p.declare(name)]
	d.line = lineNo
	if hasLo {
		v, err := parseBound(loS, -1)
		if err != nil {
			return err
		}
		d.lo, d.hasLo = v, true
	}
	if hasHi {
		v, err := parseBound(hiS, 1)
		if err != nil {
			return err
		}
		d.hi = v
	}
	return nil
}

// declare returns the index of the named variable, adding it on first
// mention.
func (p *parser) declare(name string) int {
	if i, ok := p.vars[name]; ok {
		return i
	}
	p.vars[name] = len(p.decl)
	p.decl = append(p.decl, varDecl{name: name, hi: lp.Inf})
	return len(p.decl) - 1
}

// build checks what only the whole input shows — crossed bounds, an
// objective coefficient that overflowed — and then builds the model.
func (p *parser) build() (*lp.Model, error) {
	if len(p.decl) == 0 {
		return nil, fmt.Errorf("the model names no variable")
	}
	obj := make([]float64, len(p.decl))
	for _, t := range p.obj {
		obj[p.vars[t.name]] += t.coeff
	}
	for i := range p.decl {
		d := &p.decl[i]
		if !d.hasLo && d.free {
			d.lo = -lp.Inf
		}
		if d.lo > d.hi {
			return nil, fmt.Errorf("line %d: %s: lower bound %g exceeds upper bound %g", d.line, d.name, d.lo, d.hi)
		}
		if math.IsInf(obj[i], 0) {
			return nil, fmt.Errorf("line %d: objective coefficient of %s overflows", p.objLine, d.name)
		}
	}
	m := lp.NewModel(p.sense)
	for i, d := range p.decl {
		m.AddVar(d.name, d.lo, d.hi, obj[i])
	}
	for _, c := range p.cons {
		terms := make([]lp.Term, len(c.terms))
		for i, t := range c.terms {
			terms[i] = lp.Term{Var: lp.VarID(p.vars[t.name]), Coeff: t.coeff}
		}
		m.AddConstraint(c.name, terms, c.rel, c.rhs)
	}
	return m, nil
}

// splitRelation separates "expr REL rhs" on the first <=, >= or =.
func splitRelation(s string) (lp.Relation, string, string, error) {
	for _, cand := range []struct {
		op  string
		rel lp.Relation
	}{{"<=", lp.LE}, {">=", lp.GE}, {"=", lp.EQ}} {
		if i := strings.Index(s, cand.op); i >= 0 {
			return cand.rel, s[:i], s[i+len(cand.op):], nil
		}
	}
	return lp.EQ, "", "", fmt.Errorf("no relation (<=, >=, =) in constraint %q", strings.TrimSpace(s))
}

// parseExpr parses "2 x + 3*y - z" into terms. Each term is a run of signs,
// an optional coefficient — a number read whole, exponent and its sign
// included, before any sign splits the expression — then a name.
func parseExpr(s string) ([]parsedTerm, error) {
	var terms []parsedTerm
	for i := skipSpace(s, 0); i < len(s); i = skipSpace(s, i) {
		sign := 1.0
		for i < len(s) && (s[i] == '+' || s[i] == '-') {
			if s[i] == '-' {
				sign = -sign
			}
			i = skipSpace(s, i+1)
		}
		coeff, haveCoeff := 1.0, false
		if i < len(s) && (isDigit(s[i]) || s[i] == '.') {
			j, err := scanNumber(s, i)
			if err != nil {
				return nil, err
			}
			if coeff, err = parseFinite(s[i:j]); err != nil {
				return nil, err
			}
			haveCoeff = true
			if i = skipSpace(s, j); i < len(s) && s[i] == '*' {
				i = skipSpace(s, i+1)
			}
		}
		j := i
		for j < len(s) && (isLetter(s[j]) || j > i && isDigit(s[j])) {
			j++
		}
		switch name := s[i:j]; {
		case name == "" && (haveCoeff || i == len(s)):
			return nil, fmt.Errorf("dangling coefficient or sign in expression %q", strings.TrimSpace(s))
		case name == "":
			return nil, fmt.Errorf("bad term %q", s[i:])
		case !isName(name):
			return nil, fmt.Errorf("%q is not a finite number", name)
		default:
			terms = append(terms, parsedTerm{coeff: sign * coeff, name: name})
		}
		i = j
	}
	return terms, nil
}

// scanNumber returns the end of the unsigned number starting at s[i]:
// digits and points, then an optional exponent, which must have digits
// ("2e" and "2e+x" are malformed, not 2 times e).
func scanNumber(s string, i int) (int, error) {
	j := i
	for j < len(s) && (isDigit(s[j]) || s[j] == '.') {
		j++
	}
	if j < len(s) && (s[j] == 'e' || s[j] == 'E') {
		k := j + 1
		if k < len(s) && (s[k] == '+' || s[k] == '-') {
			k++
		}
		digits := k
		for k < len(s) && isDigit(s[k]) {
			k++
		}
		if k == digits {
			return 0, fmt.Errorf("malformed number %q", s[i:k])
		}
		j = k
	}
	return j, nil
}

func skipSpace(s string, i int) int {
	for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
		i++
	}
	return i
}

func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
func isLetter(c byte) bool { return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }

// isName reports whether s is a variable name: a letter or '_', then
// letters, digits and '_', and not a word ParseFloat reads as a number
// ("inf", "nan").
func isName(s string) bool {
	if s == "" || !isLetter(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isLetter(s[i]) && !isDigit(s[i]) {
			return false
		}
	}
	_, err := strconv.ParseFloat(s, 64)
	return err != nil
}

// parseFinite reads a coefficient or right-hand side.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%q is not a finite number", s)
	}
	return v, nil
}

// parseBound reads one side of a bounds line: the lower one for open = -1,
// the upper one for open = 1. It may be infinite only on its own side.
func parseBound(s string, open int) (float64, error) {
	side := "lower"
	if open > 0 {
		side = "upper"
	}
	v, err := strconv.ParseFloat(s, 64)
	switch {
	case err != nil || math.IsNaN(v):
		return 0, fmt.Errorf("%s bound %q is not a number", side, s)
	case math.IsInf(v, -open):
		return 0, fmt.Errorf("%s bound %q leaves the variable no value", side, s)
	}
	return v, nil
}

// writeSolution renders a solved model's variable values to w in the order
// variables were declared, one "name = value" per line, followed by the
// objective.
func writeSolution(w io.Writer, m *lp.Model, sol *lp.Solution) error {
	for i := 0; i < m.NumVars(); i++ {
		if _, err := fmt.Fprintf(w, "%s = %.9g\n", m.VarName(lp.VarID(i)), sol.Value(lp.VarID(i))); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "objective = %.9g\n", sol.Objective)
	return err
}
