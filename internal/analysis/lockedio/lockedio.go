// Package lockedio implements the sharingvet lockedio analyzer: no
// network or otherwise indefinitely-blocking I/O while holding a
// sync.Mutex/RWMutex. This is the deadlock-and-stall class PR 1 fixed by
// hand in the GRM server (a parent-GRM round trip under s.mu stalls
// every LRM on the box); the analyzer keeps it fixed.
//
// "I/O" means: Read/Write on anything implementing net.Conn, Accept on a
// net.Listener, net.Dial*/net.Listen, calls through func values whose
// name contains "Dial", json Encode/Decode (the stream under it may be a
// conn), blocking channel sends, and — one level
// deeper — calls to same-package functions that transitively do any of
// the above. Function literals and go/defer statements are not analyzed
// (they run outside the lexical lock region or asynchronously).
//
// The lock region tracking is lexical with branch merging: a mutex is
// considered held after a conditional if any non-returning branch leaves
// it held. Intentional hold-lock-across-I/O designs (the LRM client
// serializes its wire protocol under l.mu) are suppressed with
// //lint:ignore sharingvet/lockedio <reason>.
package lockedio

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer flags network I/O and blocking channel sends under a mutex.
var Analyzer = &analysis.Analyzer{
	Name: "lockedio",
	Doc:  "flags conn I/O, dials, json codec calls and channel sends while a sync.Mutex/RWMutex is held",
	Run:  run,
}

var lockCalls = map[string]bool{
	"(*sync.Mutex).Lock":    true,
	"(*sync.RWMutex).Lock":  true,
	"(*sync.RWMutex).RLock": true,
}

var unlockCalls = map[string]bool{
	"(*sync.Mutex).Unlock":    true,
	"(*sync.RWMutex).Unlock":  true,
	"(*sync.RWMutex).RUnlock": true,
}

var dialFuncs = map[string]bool{
	"net.Dial":        true,
	"net.DialTimeout": true,
	"net.DialUDP":     true,
	"net.DialTCP":     true,
	"net.Listen":      true,
	"crypto/tls.Dial": true,
}

var codecCalls = map[string]string{
	"(*encoding/json.Encoder).Encode": "json encode to the stream",
	"(*encoding/json.Decoder).Decode": "json decode from the stream",
}

// transportMethods are the connection-I/O entry points of the GRM's
// transport layer (internal/grm/transport): Serve blocks in the accept
// loop until Close, and Close severs every connection and waits for
// in-flight handlers — both deadlock the server if called under its
// state mutex. The in-package I/O summaries cannot see across package
// boundaries, so these are classified by callee package name + method;
// the golden tests model the package with a stand-in of the same name.
// Configuration-only methods (SetTimeouts, Addr) are deliberately absent.
var transportMethods = map[string]string{
	"Serve": "transport accept loop (blocks until Close)",
	"Close": "transport shutdown (severs conns, waits for in-flight handlers)",
	// The binary wire path (transport wire.go): framed request/response
	// emission and the version handshake all block on the conn the
	// FrameWriter/FrameReader wraps.
	"WriteFrame": "frame write to the connection",
	"ReadFrame":  "frame read from the connection",
	"WriteHello": "handshake write to the connection",
	"ReadHello":  "handshake read from the connection",
}

type checker struct {
	pass     *analysis.Pass
	conn     *types.Interface // net.Conn, nil when unreachable
	listener *types.Interface // net.Listener
	doesIO   map[*types.Func]bool
	ioWhy    map[*types.Func]string
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:     pass,
		conn:     analysis.LookupIface(pass.Pkg, "net", "Conn"),
		listener: analysis.LookupIface(pass.Pkg, "net", "Listener"),
		doesIO:   map[*types.Func]bool{},
		ioWhy:    map[*types.Func]string{},
	}
	c.buildSummaries()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.walkBlock(fd.Body.List, map[string]token.Pos{})
		}
	}
	return nil
}

// buildSummaries computes, for every function declared in this package,
// whether calling it performs I/O — directly or through same-package
// callees (fixpoint over the in-package call graph).
func (c *checker) buildSummaries() {
	type fn struct {
		obj   *types.Func
		body  *ast.BlockStmt
		calls []*types.Func
	}
	var fns []*fn
	for _, f := range c.pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			entry := &fn{obj: obj, body: fd.Body}
			c.inspectForIO(fd.Body, func(pos token.Pos, desc string) {
				if !c.doesIO[obj] {
					c.doesIO[obj] = true
					c.ioWhy[obj] = desc
				}
			}, func(callee *types.Func, _ token.Pos) {
				entry.calls = append(entry.calls, callee)
			})
			fns = append(fns, entry)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, f := range fns {
			if c.doesIO[f.obj] {
				continue
			}
			for _, callee := range f.calls {
				if c.doesIO[callee] {
					c.doesIO[f.obj] = true
					c.ioWhy[f.obj] = "calls " + callee.Name() + " which " + c.ioWhy[callee]
					changed = true
					break
				}
			}
		}
	}
}

// inspectForIO walks a subtree reporting direct I/O sites and
// same-package call edges. Function literals, go statements and defers
// are skipped; selects with a default clause have their (non-blocking)
// comm statements skipped but their bodies walked.
func (c *checker) inspectForIO(root ast.Node, report func(token.Pos, string), edge func(*types.Func, token.Pos)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.SendStmt:
			report(n.Arrow, "blocking channel send")
			return true
		case *ast.SelectStmt:
			hasDefault := false
			for _, cl := range n.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				return true
			}
			for _, cl := range n.Body.List {
				cc := cl.(*ast.CommClause)
				for _, st := range cc.Body {
					c.inspectForIO(st, report, edge)
				}
			}
			return false
		case *ast.CallExpr:
			if pos, desc, ok := c.directIO(n); ok {
				report(pos, desc)
				return true
			}
			if callee := analysis.Callee(c.pass.TypesInfo, n); callee != nil && callee.Pkg() == c.pass.Pkg && edge != nil {
				edge(callee, n.Pos())
			}
			return true
		}
		return true
	})
}

// directIO classifies one call as primitive I/O.
func (c *checker) directIO(call *ast.CallExpr) (token.Pos, string, bool) {
	full := analysis.MethodFullName(c.pass.TypesInfo, call)
	if dialFuncs[full] {
		return call.Pos(), "network dial/listen (" + full + ")", true
	}
	if desc, ok := codecCalls[full]; ok {
		return call.Pos(), desc, true
	}
	if callee := analysis.Callee(c.pass.TypesInfo, call); callee != nil &&
		callee.Pkg() != nil && callee.Pkg() != c.pass.Pkg && callee.Pkg().Name() == "transport" {
		if desc, ok := transportMethods[callee.Name()]; ok {
			return call.Pos(), desc, true
		}
	}
	if recv := analysis.RecvType(c.pass.TypesInfo, call); recv != nil {
		sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		switch sel.Sel.Name {
		case "Read", "Write":
			if analysis.Implements(recv, c.conn) {
				return call.Pos(), "conn " + strings.ToLower(sel.Sel.Name), true
			}
		case "Accept":
			if analysis.Implements(recv, c.listener) {
				return call.Pos(), "listener accept", true
			}
		}
	}
	// Calls through func-typed values named after dialing (DialConfig.Dialer).
	if analysis.Callee(c.pass.TypesInfo, call) == nil {
		if name := calleeName(call.Fun); strings.Contains(strings.ToLower(name), "dial") {
			return call.Pos(), "dial through " + name, true
		}
	}
	return token.NoPos, "", false
}

func calleeName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// walkBlock interprets a statement list tracking which mutexes are held
// (keyed by receiver expression, e.g. "s.mu"). It returns the lock set at
// fall-through exit and whether the block always terminates (returns).
func (c *checker) walkBlock(stmts []ast.Stmt, held map[string]token.Pos) (map[string]token.Pos, bool) {
	for _, st := range stmts {
		var terminated bool
		held, terminated = c.walkStmt(st, held)
		if terminated {
			return held, true
		}
	}
	return held, false
}

func (c *checker) walkStmt(st ast.Stmt, held map[string]token.Pos) (map[string]token.Pos, bool) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if mu, kind := c.lockOp(call); kind != 0 {
				held = clone(held)
				if kind > 0 {
					held[mu] = call.Pos()
				} else {
					delete(held, mu)
				}
				return held, false
			}
			if isTerminator(c.pass.TypesInfo, call) {
				return held, true
			}
		}
		c.checkSimple(st, held)
		return held, false
	case *ast.BlockStmt:
		return c.walkBlock(st.List, held)
	case *ast.IfStmt:
		if st.Init != nil {
			c.checkSimple(st.Init, held)
		}
		c.checkSimple(st.Cond, held)
		thenExit, thenTerm := c.walkBlock(st.Body.List, clone(held))
		elseExit, elseTerm := clone(held), false
		if st.Else != nil {
			elseExit, elseTerm = c.walkStmt(st.Else, clone(held))
		}
		return merge2(thenExit, thenTerm, elseExit, elseTerm, held), false
	case *ast.ForStmt:
		if st.Init != nil {
			c.checkSimple(st.Init, held)
		}
		if st.Cond != nil {
			c.checkSimple(st.Cond, held)
		}
		bodyExit, _ := c.walkBlock(st.Body.List, clone(held))
		return union(held, bodyExit), false
	case *ast.RangeStmt:
		c.checkSimple(st.X, held)
		bodyExit, _ := c.walkBlock(st.Body.List, clone(held))
		return union(held, bodyExit), false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var body *ast.BlockStmt
		if sw, ok := st.(*ast.SwitchStmt); ok {
			if sw.Tag != nil {
				c.checkSimple(sw.Tag, held)
			}
			body = sw.Body
		} else {
			body = st.(*ast.TypeSwitchStmt).Body
		}
		exit := clone(held)
		for _, cl := range body.List {
			cc := cl.(*ast.CaseClause)
			clExit, clTerm := c.walkBlock(cc.Body, clone(held))
			if !clTerm {
				exit = union(exit, clExit)
			}
		}
		return exit, false
	case *ast.SelectStmt:
		hasDefault := false
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		exit := clone(held)
		for _, cl := range st.Body.List {
			cc := cl.(*ast.CommClause)
			if cc.Comm != nil && !hasDefault && len(held) > 0 {
				if send, ok := cc.Comm.(*ast.SendStmt); ok {
					c.report(send.Arrow, "blocking channel send in select", held)
				}
			}
			clExit, clTerm := c.walkBlock(cc.Body, clone(held))
			if !clTerm {
				exit = union(exit, clExit)
			}
		}
		return exit, false
	case *ast.LabeledStmt:
		return c.walkStmt(st.Stmt, held)
	case *ast.GoStmt, *ast.DeferStmt:
		return held, false
	case *ast.ReturnStmt:
		c.checkSimple(st, held)
		return held, true
	default:
		c.checkSimple(st, held)
		return held, false
	}
}

// checkSimple reports I/O inside a non-control-flow statement (or a
// condition expression wrapped in one) when any mutex is held.
func (c *checker) checkSimple(n ast.Node, held map[string]token.Pos) {
	if len(held) == 0 {
		return
	}
	c.inspectForIO(n, func(pos token.Pos, desc string) {
		c.report(pos, desc, held)
	}, func(callee *types.Func, pos token.Pos) {
		if c.doesIO[callee] {
			c.report(pos, "call to "+callee.Name()+" which "+c.ioWhy[callee], held)
		}
	})
}

func (c *checker) report(pos token.Pos, desc string, held map[string]token.Pos) {
	names := make([]string, 0, len(held))
	for mu := range held {
		names = append(names, mu)
	}
	c.pass.Reportf(pos, "%s while holding %s", desc, strings.Join(names, ", "))
}

// lockOp classifies a call as +1 (lock), -1 (unlock) or 0, returning the
// mutex key.
func (c *checker) lockOp(call *ast.CallExpr) (string, int) {
	full := analysis.MethodFullName(c.pass.TypesInfo, call)
	var kind int
	switch {
	case lockCalls[full]:
		kind = 1
	case unlockCalls[full]:
		kind = -1
	default:
		return "", 0
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", 0
	}
	return types.ExprString(sel.X), kind
}

func isTerminator(info *types.Info, call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			return true
		}
	}
	return analysis.MethodFullName(info, call) == "os.Exit"
}

func clone(m map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func union(a, b map[string]token.Pos) map[string]token.Pos {
	out := clone(a)
	for k, v := range b {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}

func merge2(a map[string]token.Pos, aTerm bool, b map[string]token.Pos, bTerm bool, entry map[string]token.Pos) map[string]token.Pos {
	switch {
	case aTerm && bTerm:
		return clone(entry)
	case aTerm:
		return b
	case bTerm:
		return a
	default:
		return union(a, b)
	}
}
