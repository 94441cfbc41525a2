package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

const cgSrc = `package p

import "sync"

type wire interface {
	do(n int) int
	close()
}

type binWire struct{ mu sync.Mutex }

func (w *binWire) do(n int) int { return n + 1 }
func (w *binWire) close()       {}

type memWire struct{}

func (w *memWire) do(n int) int { return n + 2 }
func (w *memWire) close()       {}

type Server struct {
	mu sync.Mutex
	w  wire
}

func (s *Server) appendLocked()  {}
func (s *Server) creditLocked()  { s.appendLocked() }
func (s *Server) releaseLocked() { s.creditLocked() }
func (s *Server) isolated()      {}

func (s *Server) exchange(n int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.releaseLocked()
	return s.w.do(n) // interface call: fans out to binWire.do and memWire.do
}

func (s *Server) viaLiteral() {
	f := func() { s.isolated() } // literal bodies are outside the graph
	f()
}
`

func loadCGSource(t *testing.T, src string) (*token.FileSet, []*ast.File, *types.Package, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check("p", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return fset, []*ast.File{file}, pkg, info
}

func TestCallGraphStaticEdges(t *testing.T) {
	_, files, pkg, info := loadCGSource(t, cgSrc)
	g := BuildCallGraph(files, pkg, info)

	release := g.Lookup("Server.releaseLocked")
	credit := g.Lookup("Server.creditLocked")
	appendL := g.Lookup("Server.appendLocked")
	if release == nil || credit == nil || appendL == nil {
		t.Fatalf("Lookup failed: release=%v credit=%v append=%v", release, credit, appendL)
	}
	sites := g.CalleesOf(release)
	if len(sites) != 1 || sites[0].Callee != credit || sites[0].ViaInterface {
		t.Fatalf("releaseLocked callees = %v, want static call to creditLocked", sites)
	}
	if len(g.CallersOf(appendL)) != 1 || g.CallersOf(appendL)[0].Caller != credit {
		t.Fatalf("appendLocked callers = %v, want creditLocked", g.CallersOf(appendL))
	}
}

func TestCallGraphInterfaceResolution(t *testing.T) {
	_, files, pkg, info := loadCGSource(t, cgSrc)
	g := BuildCallGraph(files, pkg, info)

	exchange := g.Lookup("Server.exchange")
	binDo := g.Lookup("binWire.do")
	memDo := g.Lookup("memWire.do")
	if exchange == nil || binDo == nil || memDo == nil {
		t.Fatal("Lookup failed for interface-call fixtures")
	}
	targets := map[*types.Func]bool{}
	for _, site := range g.CalleesOf(exchange) {
		if site.ViaInterface {
			targets[site.Callee] = true
			if site.Caller != exchange {
				t.Fatalf("interface site caller = %v, want exchange", site.Caller)
			}
		}
	}
	if !targets[binDo] || !targets[memDo] || len(targets) != 2 {
		t.Fatalf("interface call resolved to %v, want {binWire.do, memWire.do}", targets)
	}
}

func TestCallGraphSkipsFuncLits(t *testing.T) {
	_, files, pkg, info := loadCGSource(t, cgSrc)
	g := BuildCallGraph(files, pkg, info)

	via := g.Lookup("Server.viaLiteral")
	isolated := g.Lookup("Server.isolated")
	if via == nil || isolated == nil {
		t.Fatal("Lookup failed for literal fixtures")
	}
	for _, site := range g.CalleesOf(via) {
		if site.Callee == isolated {
			t.Fatal("call inside a FuncLit must not produce a graph edge")
		}
	}
}

func TestCallGraphReachability(t *testing.T) {
	_, files, pkg, info := loadCGSource(t, cgSrc)
	g := BuildCallGraph(files, pkg, info)

	appendL := g.Lookup("Server.appendLocked")
	reaches := g.ReachesAnyOf(appendL)
	for name, want := range map[string]bool{
		"Server.appendLocked":  true,
		"Server.creditLocked":  true,
		"Server.releaseLocked": true,
		"Server.exchange":      true,
		"Server.isolated":      false,
		"binWire.do":           false,
	} {
		f := g.Lookup(name)
		if f == nil {
			t.Fatalf("Lookup(%s) = nil", name)
		}
		if reaches[f] != want {
			t.Errorf("reaches[%s] = %v, want %v", name, reaches[f], want)
		}
	}

	exchange := g.Lookup("Server.exchange")
	fwd := g.ReachableFrom(exchange)
	if !fwd[g.Lookup("binWire.do")] || !fwd[appendL] {
		t.Errorf("ReachableFrom(exchange) missing interface/static targets: %v", fwd)
	}
}

func TestCallGraphFixpoint(t *testing.T) {
	_, files, pkg, info := loadCGSource(t, cgSrc)
	g := BuildCallGraph(files, pkg, info)

	// Bottom-up "reaches appendLocked" computed through Fixpoint must
	// agree with the direct reverse traversal.
	appendL := g.Lookup("Server.appendLocked")
	facts := map[*types.Func]bool{appendL: true}
	g.Fixpoint(func(f *types.Func) bool {
		if facts[f] {
			return false
		}
		for _, site := range g.CalleesOf(f) {
			if facts[site.Callee] {
				facts[f] = true
				return true
			}
		}
		return false
	})
	want := g.ReachesAnyOf(appendL)
	for _, f := range g.Funcs() {
		if facts[f] != want[f] {
			t.Errorf("fixpoint[%v] = %v, reverse walk says %v", f, facts[f], want[f])
		}
	}
}

func TestMutexFields(t *testing.T) {
	_, _, pkg, _ := loadCGSource(t, cgSrc)
	srv, _ := pkg.Scope().Lookup("Server").(*types.TypeName)
	if srv == nil {
		t.Fatal("Server type missing")
	}
	fields := MutexFields(srv.Type().(*types.Named))
	if len(fields) != 1 || fields[0] != "mu" {
		t.Fatalf("MutexFields(Server) = %v, want [mu]", fields)
	}
}

func TestIgnoreNamesMultiple(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"lockedio", []string{"lockedio"}},
		{"sharingvet/lockedio", []string{"lockedio"}},
		{"lockedio,netdeadline", []string{"lockedio", "netdeadline"}},
		{"sharingvet/lockedio, sharingvet/netdeadline", []string{"lockedio", "netdeadline"}},
		{"lockedio , waljournal,lockorder", []string{"lockedio", "waljournal", "lockorder"}},
	}
	for _, c := range cases {
		m := ignoreRE.FindStringSubmatch("lint:ignore " + c.in + " some reason")
		if m == nil {
			t.Errorf("ignoreRE did not match %q", c.in)
			continue
		}
		got := ignoreNames(m[1])
		if len(got) != len(c.want) {
			t.Errorf("ignoreNames(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("ignoreNames(%q)[%d] = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestMultiNameSuppressionEndToEnd(t *testing.T) {
	src := `package q

func f() {
	_ = 1 //lint:ignore sharingvet/alpha,beta covered by both

	_ = 2

	_ = 3 //lint:ignore alpha only one
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "q.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sup := collectSuppressions(fset, []*ast.File{file})
	at := func(line int) token.Position {
		return token.Position{Filename: "q.go", Line: line}
	}
	if !sup.suppresses("alpha", at(4)) || !sup.suppresses("beta", at(4)) {
		t.Error("multi-name directive must suppress both analyzers on its line")
	}
	if sup.suppresses("alpha", at(6)) || sup.suppresses("beta", at(6)) {
		t.Error("directives must not reach past the line below them")
	}
	if sup.suppresses("beta", at(8)) {
		t.Error("single-name directive must not leak to other analyzers")
	}
	if !sup.suppresses("alpha", at(8)) {
		t.Error("single-name directive must still work")
	}
}
