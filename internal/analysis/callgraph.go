package analysis

// The package-graph layer of the framework: a lightweight call graph
// over one typechecked package, built from go/types information alone.
// Analyzers that need interprocedural facts (lockorder's acquisition
// graph, waljournal's reaches-appendLocked test, lockedio's I/O
// summaries) share it through Pass.CallGraph(), which builds it once
// per pass.
//
// Edges are of two kinds:
//
//   - static: the callee resolves to a function or concrete method
//     declared in this package;
//   - interface-resolved: the callee is a method of an interface type
//     declared in this package (the GRM's `wire`, the transport's
//     `Handler`); the edge fans out to the same-named method of every
//     in-package named type whose method set satisfies the interface.
//
// Calls through plain function values, externally declared interfaces,
// the bodies of function literals and go statements are outside the
// graph: a goroutine's calls are not its spawner's — the same deliberate
// blind spots the per-function analyzers have, documented in each
// analyzer's package comment. A deferred call is the function's own.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// CallSite is one resolved call edge with its source position.
type CallSite struct {
	Caller *types.Func
	Callee *types.Func
	Pos    token.Pos
	// ViaInterface marks edges resolved through an in-package interface's
	// method set rather than a static callee.
	ViaInterface bool
}

// CallGraph is the static call graph of one package: every declared
// function and method, plus resolved call edges between them.
type CallGraph struct {
	funcs []*types.Func // declared in the package, in file order
	decls map[*types.Func]*ast.FuncDecl
	out   map[*types.Func][]CallSite
	in    map[*types.Func][]CallSite
}

// Funcs lists every function and method declared in the package with a
// body, in source order.
func (g *CallGraph) Funcs() []*types.Func { return g.funcs }

// DeclOf returns the declaration of an in-package function, or nil.
func (g *CallGraph) DeclOf(f *types.Func) *ast.FuncDecl { return g.decls[f] }

// Decls exposes the declaration map for use with ResolveCall.
func (g *CallGraph) Decls() map[*types.Func]*ast.FuncDecl { return g.decls }

// CalleesOf returns the resolved call sites inside f's body.
func (g *CallGraph) CalleesOf(f *types.Func) []CallSite { return g.out[f] }

// ReachesAnyOf returns the set of functions from which at least one of
// the targets is reachable (the reverse-reachable set, including the
// targets themselves). This is the bottom-up fact propagation the
// waljournal analyzer runs: "does this helper's call graph reach
// appendLocked?" is one map lookup after one traversal.
func (g *CallGraph) ReachesAnyOf(targets ...*types.Func) map[*types.Func]bool {
	seen := map[*types.Func]bool{}
	var walk func(*types.Func)
	walk = func(n *types.Func) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, site := range g.in[n] {
			walk(site.Caller)
		}
	}
	for _, t := range targets {
		if t != nil {
			walk(t)
		}
	}
	return seen
}

// Fixpoint runs update over every declared function repeatedly until no
// call reports a change — the generic engine for bottom-up per-function
// fact summaries (may-acquire lock sets, does-I/O bits). update must be
// monotone for termination; the iteration order is source order, which
// converges fast for mostly-forward call structures.
func (g *CallGraph) Fixpoint(update func(f *types.Func) bool) {
	for changed := true; changed; {
		changed = false
		for _, f := range g.funcs {
			if update(f) {
				changed = true
			}
		}
	}
}

// Lookup finds a declared function by name — method names may be
// qualified as "Type.Method" (pointer receivers match too). Returns nil
// when absent.
func (g *CallGraph) Lookup(name string) *types.Func {
	for _, f := range g.funcs {
		recv := RecvNamed(f)
		if recv == nil && f.Name() == name {
			return f
		}
		if recv != nil && recv.Obj().Name()+"."+f.Name() == name {
			return f
		}
	}
	return nil
}

// CallGraph returns the package's call graph, building it on first use.
func (p *Pass) CallGraph() *CallGraph {
	if p.cg == nil {
		p.cg = BuildCallGraph(p.Files, p.Pkg, p.TypesInfo)
	}
	return p.cg
}

// BuildCallGraph constructs the call graph for one typechecked package.
func BuildCallGraph(files []*ast.File, pkg *types.Package, info *types.Info) *CallGraph {
	g := &CallGraph{
		decls: map[*types.Func]*ast.FuncDecl{},
		out:   map[*types.Func][]CallSite{},
		in:    map[*types.Func][]CallSite{},
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.funcs = append(g.funcs, obj)
			g.decls[obj] = fd
		}
	}
	for _, caller := range g.funcs {
		fd := g.decls[caller]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.FuncLit, *ast.GoStmt:
				return false // these run on their own schedule
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, site := range ResolveCall(pkg, info, call, g.decls) {
				site.Caller = caller
				g.out[caller] = append(g.out[caller], site)
				g.in[site.Callee] = append(g.in[site.Callee], site)
			}
			return true
		})
	}
	return g
}

// ResolveCall resolves one call expression to its in-package callees:
// the static callee when it is declared in pkg, or — for a method call
// through an interface declared in pkg — the matching method of every
// in-package implementation. decls restricts results to functions that
// have bodies in this package.
func ResolveCall(pkg *types.Package, info *types.Info, call *ast.CallExpr, decls map[*types.Func]*ast.FuncDecl) []CallSite {
	callee := Callee(info, call)
	if callee == nil {
		return nil
	}
	if _, ok := decls[callee]; ok {
		return []CallSite{{Callee: callee, Pos: call.Pos()}}
	}
	// An interface method: the *types.Func is the interface's, declared
	// in its defining package. Resolve through the method sets of the
	// package's named types when the interface itself is in-package.
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := info.Selections[sel]
	if !ok {
		return nil
	}
	recv := s.Recv()
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok || callee.Pkg() != pkg {
		return nil
	}
	var sites []CallSite
	for _, impl := range implementationsOf(pkg, iface) {
		m := methodOf(impl, callee.Name())
		if m == nil {
			continue
		}
		if _, ok := decls[m]; ok {
			sites = append(sites, CallSite{Callee: m, Pos: call.Pos(), ViaInterface: true})
		}
	}
	return sites
}

// implementationsOf lists the package's named non-interface types whose
// method set (value or pointer) satisfies iface, in name order.
func implementationsOf(pkg *types.Package, iface *types.Interface) []*types.Named {
	var out []*types.Named
	names := pkg.Scope().Names()
	sort.Strings(names)
	for _, name := range names {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			out = append(out, named)
		}
	}
	return out
}

// methodOf finds the declared method with the given name on t (either
// receiver form), or nil.
func methodOf(t *types.Named, name string) *types.Func {
	for i := 0; i < t.NumMethods(); i++ {
		if m := t.Method(i); m.Name() == name {
			return m
		}
	}
	return nil
}

// RecvNamed returns the named receiver type of a method (pointer
// receivers are unwrapped), or nil for plain functions.
func RecvNamed(f *types.Func) *types.Named {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// MutexFields lists the names of t's struct fields whose type is
// sync.Mutex or sync.RWMutex — the lock fields the *Locked suffix
// convention is phrased against.
func MutexFields(t *types.Named) []string {
	if t == nil {
		return nil
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var out []string
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if IsMutexType(f.Type()) {
			out = append(out, f.Name())
		}
	}
	return out
}

// IsMutexType reports whether t is sync.Mutex or sync.RWMutex.
func IsMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}
