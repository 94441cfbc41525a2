package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
	"strings"
	"testing"
)

const lockflowSrc = `package p

import "sync"

type A struct{ mu sync.Mutex }

type B struct{ mu sync.Mutex }

func probe(int) {}

func g(a *A, b *B, ok bool, n int) {
	a.mu.Lock()
	if ok {
		b.mu.Lock()
	}
	probe(1)
	a.mu.Unlock()
	probe(2)
	switch n {
	case 0:
		b.mu.Unlock()
	default:
		b.mu.Unlock()
	}
	probe(3)
	a.mu.Lock()
	if ok {
		a.mu.Unlock()
		return
	}
	for i := 0; i < n; probe(4) {
		i++
	}
}
`

// TestWalkLocksViews pins the two views of the one lock walker: may-held
// is a union at joins keyed by expression, must-held an intersection
// keyed by type and field; a switch with a default does not fall through
// unmatched, and a branch that returns does not join.
func TestWalkLocksViews(t *testing.T) {
	_, files, _, info := loadCGSource(t, lockflowSrc)
	var body *ast.BlockStmt
	for _, d := range files[0].Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "g" {
			body = fd.Body
		}
	}
	keys := func(m map[string]HeldLock) []string {
		var out []string
		for k := range m {
			out = append(out, k)
		}
		slices.Sort(out)
		return out
	}
	var got []string
	WalkLocks(info, body, LockState{}, LockHooks{
		Leaf: func(n ast.Node, st LockState) {
			s, ok := n.(*ast.ExprStmt)
			if !ok {
				return
			}
			if call, ok := s.X.(*ast.CallExpr); ok && types.ExprString(call.Fun) == "probe" {
				got = append(got, fmt.Sprintf("%s may=%v must=%v", call.Args[0].(*ast.BasicLit).Value, keys(st.May), keys(st.Must)))
			}
		},
	})
	want := []string{
		"1 may=[a.mu b.mu] must=[A.mu]",
		"2 may=[b.mu] must=[]",
		"3 may=[] must=[]",
		"4 may=[a.mu] must=[A.mu]",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("lock states at the probes:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestCheckReportsUnusedDirectives: a directive naming an analyzer that
// does not run, or one that suppresses nothing, is a finding of its own;
// prose quoting a directive is not a directive.
func TestCheckReportsUnusedDirectives(t *testing.T) {
	src := `package q

func bad() {}

func f() {
	bad() //lint:ignore alpha suppresses the call

	bad()
	//lint:ignore alpha nothing on the next line
	_ = 1
	_ = 2 //lint:ignore beta never runs here
	// Quoting one — //lint:ignore alpha — is prose.
}
`
	fset, files, pkg, info := loadCGSource(t, src)
	alpha := &Analyzer{Name: "alpha", Run: func(p *Pass) error {
		ast.Inspect(p.Files[0], func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				p.Reportf(call.Pos(), "call")
			}
			return true
		})
		return nil
	}}
	diags, err := Check([]*Analyzer{alpha}, fset, files, pkg, info)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%d %s: %s", d.Pos.Line, d.Analyzer, d.Message))
	}
	want := []string{
		"8 alpha: call",
		"9 lint:ignore: directive suppresses no alpha finding",
		"11 lint:ignore: directive names beta, which does not run on this package",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("Check:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
