package analysis

// The lock-flow layer of the framework: one lexical interpreter of a
// function body's mutex state, shared by the analyzers that need to know
// which locks are held at a statement (lockedio reads what may be held,
// lockorder what must be). It walks the body once, in source order,
// keeping two views of the held set:
//
//   - may-held, joined by union: a mutex is held after a branch if any
//     path that falls through leaves it held. Keyed by the receiver
//     expression ("s.mu"), so a.mu.Unlock() never hides a held b.mu.
//   - must-held, joined by intersection: a mutex released on any path is
//     not held. Keyed by owning type and field ("Server.mu") for a
//     struct-field mutex, so s.mu and srv.mu in different functions name
//     the same lock; by the expression otherwise.
//
// Only Lock/RLock and Unlock/RUnlock calls standing as statements change
// the state. A path ends at a return, a panic or os.Exit. A loop's body
// (and a for statement's Post) is walked once and joined with the state
// before the loop. Function literals and go/defer statements are not
// walked: they run outside the lexical lock region or asynchronously.

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// HeldLock is one mutex a walk holds.
type HeldLock struct {
	Key   string    // "Type.field" for a struct-field mutex, else Expr
	Expr  string    // the receiver expression as written, "s.mu"
	Pos   token.Pos // the Lock call, or where an entry-held lock was declared
	Entry bool      // held from function entry, not by a Lock call
}

// LockState is the lock state at one point of a walk. A hook may read it
// but must not write it.
type LockState struct {
	May  map[string]HeldLock // held on some path, by Expr
	Must map[string]HeldLock // held on every path, by Key
}

// LockHooks are the walk's callbacks. Either may be nil.
type LockHooks struct {
	// Lock runs at each Lock or RLock call, before l is added to st.
	Lock func(l HeldLock, st LockState)
	// Leaf runs on each statement or expression the walker does not
	// interpret itself, with the state it runs under: simple statements,
	// the conditions, tags, case expressions and range operands of control
	// statements, and a type switch's Assign. A select statement is one
	// leaf for its communications: the visitor inspects its clauses' Comm
	// statements only, as the walker walks their bodies.
	Leaf func(n ast.Node, st LockState)
}

// WalkLocks interprets body from the entry state, calling hooks along the
// way. entry is not modified.
func WalkLocks(info *types.Info, body *ast.BlockStmt, entry LockState, hooks LockHooks) {
	w := &lockWalker{info: info, hooks: hooks}
	w.block(body.List, entry.clone())
}

// lockOf classifies a call as a lock (+1), an unlock (-1) or neither (0),
// returning the mutex it names.
func lockOf(info *types.Info, call *ast.CallExpr) (HeldLock, int) {
	var kind int
	switch MethodFullName(info, call) {
	case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock", "(*sync.RWMutex).RLock":
		kind = 1
	case "(*sync.Mutex).Unlock", "(*sync.RWMutex).Unlock", "(*sync.RWMutex).RUnlock":
		kind = -1
	default:
		return HeldLock{}, 0
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return HeldLock{}, 0
	}
	l := HeldLock{Expr: types.ExprString(sel.X), Pos: call.Pos()}
	l.Key = l.Expr
	if field, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
		if tv, ok := info.Types[field.X]; ok {
			t := tv.Type
			if ptr, isPtr := t.(*types.Pointer); isPtr {
				t = ptr.Elem()
			}
			if named, isNamed := t.(*types.Named); isNamed {
				l.Key = named.Obj().Name() + "." + field.Sel.Name
			}
		}
	}
	return l, kind
}

type lockWalker struct {
	info  *types.Info
	hooks LockHooks
}

func (w *lockWalker) leaf(n ast.Node, st LockState) {
	if n != nil && w.hooks.Leaf != nil {
		w.hooks.Leaf(n, st)
	}
}

// block walks a statement list; it returns the state at fall-through exit
// and whether every path through the list ends.
func (w *lockWalker) block(stmts []ast.Stmt, st LockState) (LockState, bool) {
	for _, s := range stmts {
		var ends bool
		if st, ends = w.stmt(s, st); ends {
			return st, true
		}
	}
	return st, false
}

// stmt walks one statement. st is the walker's to change: a caller that
// needs the entry state afterwards passes a clone.
func (w *lockWalker) stmt(s ast.Stmt, st LockState) (LockState, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			break
		}
		switch l, kind := lockOf(w.info, call); kind {
		case 1:
			if w.hooks.Lock != nil {
				w.hooks.Lock(l, st)
			}
			st.May[l.Expr], st.Must[l.Key] = l, l
			return st, false
		case -1:
			delete(st.May, l.Expr)
			delete(st.Must, l.Key)
			return st, false
		}
		if w.terminates(call) {
			w.leaf(s, st)
			return st, true
		}
	case *ast.BlockStmt:
		return w.block(s.List, st)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.GoStmt, *ast.DeferStmt:
		return st, false
	case *ast.ReturnStmt:
		w.leaf(s, st)
		return st, true
	case *ast.IfStmt:
		st = w.init(s.Init, st)
		w.leaf(s.Cond, st)
		then, thenEnds := w.block(s.Body.List, st.clone())
		if s.Else == nil {
			return join(then, thenEnds, st, false)
		}
		els, elseEnds := w.stmt(s.Else, st.clone())
		return join(then, thenEnds, els, elseEnds)
	case *ast.ForStmt:
		st = w.init(s.Init, st)
		w.leaf(s.Cond, st)
		exit, _ := w.block(s.Body.List, st.clone())
		if s.Post != nil {
			exit, _ = w.stmt(s.Post, exit)
		}
		return st.merge(exit), false
	case *ast.RangeStmt:
		w.leaf(s.X, st)
		exit, _ := w.block(s.Body.List, st.clone())
		return st.merge(exit), false
	case *ast.SwitchStmt:
		st = w.init(s.Init, st)
		w.leaf(s.Tag, st)
		return w.clauses(s.Body, st, true)
	case *ast.TypeSwitchStmt:
		st = w.init(s.Init, st)
		w.leaf(s.Assign, st)
		return w.clauses(s.Body, st, false)
	case *ast.SelectStmt:
		w.leaf(s, st)
		return w.clauses(s.Body, st, false)
	}
	w.leaf(s, st)
	return st, false
}

// init walks a control statement's Init, if any.
func (w *lockWalker) init(s ast.Stmt, st LockState) LockState {
	if s != nil {
		st, _ = w.stmt(s, st)
	}
	return st
}

// clauses walks a switch or select body. The exit state joins the clauses
// that fall through, and the entry state too when a switch has no default
// (no case may match); the statement ends when nothing falls through.
// caseExprs says the case lists are expressions to visit (a value switch),
// not types.
func (w *lockWalker) clauses(body *ast.BlockStmt, st LockState, caseExprs bool) (LockState, bool) {
	var exit LockState
	falls, isSwitch, hasDefault := false, false, false
	for _, cl := range body.List {
		var stmts []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			isSwitch, hasDefault = true, hasDefault || cl.List == nil
			if caseExprs {
				for _, e := range cl.List {
					w.leaf(e, st)
				}
			}
			stmts = cl.Body
		case *ast.CommClause:
			hasDefault = hasDefault || cl.Comm == nil
			stmts = cl.Body
		}
		clExit, ends := w.block(stmts, st.clone())
		exit, _ = join(exit, !falls, clExit, ends)
		falls = falls || !ends
	}
	if isSwitch && !hasDefault {
		exit, _ = join(exit, !falls, st, false)
		falls = true
	}
	if !falls {
		return st, len(body.List) > 0
	}
	return exit, false
}

// terminates reports whether a call ends its path: the panic built-in or
// os.Exit.
func (w *lockWalker) terminates(call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		if _, isBuiltin := w.info.Uses[id].(*types.Builtin); isBuiltin {
			return true
		}
	}
	return MethodFullName(w.info, call) == "os.Exit"
}

// join merges the exits of two paths, either of which may have ended.
func join(a LockState, aEnds bool, b LockState, bEnds bool) (LockState, bool) {
	switch {
	case aEnds && bEnds:
		return a, true
	case aEnds:
		return b, false
	case bEnds:
		return a, false
	}
	return a.merge(b), false
}

func (st LockState) clone() LockState {
	out := LockState{May: map[string]HeldLock{}, Must: map[string]HeldLock{}}
	maps.Copy(out.May, st.May)
	maps.Copy(out.Must, st.Must)
	return out
}

// merge joins st with the state of another path: may-held by union and
// must-held by intersection, keeping st's entries where both hold one.
func (st LockState) merge(o LockState) LockState {
	out := st.clone()
	for k, v := range o.May {
		if _, ok := out.May[k]; !ok {
			out.May[k] = v
		}
	}
	maps.DeleteFunc(out.Must, func(k string, _ HeldLock) bool {
		_, ok := o.Must[k]
		return !ok
	})
	return out
}
