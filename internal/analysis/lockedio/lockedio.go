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
// the above, summarized over the package call graph. Function literals
// and go/defer statements are not analyzed (they run outside the lexical
// lock region or asynchronously).
//
// The lock region is the may-held view of the framework's lock walker
// (analysis.WalkLocks): a mutex is considered held after a conditional if
// any non-returning branch leaves it held. Intentional hold-lock-across-I/O
// designs (the LRM client serializes its wire protocol under l.mu) carry a
// justified suppression directive.
package lockedio

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Analyzer flags network I/O and blocking channel sends under a mutex.
var Analyzer = &analysis.Analyzer{
	Name: "lockedio",
	Doc:  "flags conn I/O, dials, json codec calls and channel sends while a sync.Mutex/RWMutex is held",
	Run:  run,
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
}

// heldCall is an in-package call made while a mutex may be held: a
// finding once the I/O summaries say the callee does I/O.
type heldCall struct {
	call *ast.CallExpr
	held string
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:     pass,
		conn:     analysis.LookupIface(pass.Pkg, "net", "Conn"),
		listener: analysis.LookupIface(pass.Pkg, "net", "Listener"),
	}
	cg := pass.CallGraph()
	// ioWhy says, for each function that does I/O, what: first its own
	// I/O, found by the one walk of its body that also finds the I/O it
	// does under a mutex; then, by the call graph's fixpoint, the I/O of
	// the callees it reaches.
	ioWhy := map[*types.Func]string{}
	var calls []heldCall
	for _, f := range cg.Funcs() {
		analysis.WalkLocks(pass.TypesInfo, cg.DeclOf(f).Body, analysis.LockState{}, analysis.LockHooks{
			Leaf: func(n ast.Node, st analysis.LockState) {
				held := heldNames(st)
				c.inspectForIO(n, func(pos token.Pos, desc string) {
					if _, ok := ioWhy[f]; !ok {
						ioWhy[f] = desc
					}
					if held != "" {
						pass.Reportf(pos, "%s while holding %s", desc, held)
					}
				}, func(call *ast.CallExpr) {
					if held != "" {
						calls = append(calls, heldCall{call, held})
					}
				})
			},
		})
	}
	cg.Fixpoint(func(f *types.Func) bool {
		if _, ok := ioWhy[f]; ok {
			return false
		}
		for _, site := range cg.CalleesOf(f) {
			if why, ok := ioWhy[site.Callee]; ok {
				ioWhy[f] = "calls " + site.Callee.Name() + " which " + why
				return true
			}
		}
		return false
	})
	for _, hc := range calls {
		for _, site := range analysis.ResolveCall(pass.Pkg, pass.TypesInfo, hc.call, cg.Decls()) {
			if why, ok := ioWhy[site.Callee]; ok {
				pass.Reportf(hc.call.Pos(), "call to %s which %s while holding %s", site.Callee.Name(), why, hc.held)
				break
			}
		}
	}
	return nil
}

// heldNames lists the mutexes that may be held, sorted, or "" for none.
func heldNames(st analysis.LockState) string {
	names := make([]string, 0, len(st.May))
	for mu := range st.May {
		names = append(names, mu)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// inspectForIO inspects one leaf of the lock walk, reporting its direct
// I/O sites and handing every other call it makes to call. Function
// literals are skipped. A select statement stands
// for its communications: a send blocks unless the select has a default.
func (c *checker) inspectForIO(root ast.Node, report func(token.Pos, string), call func(*ast.CallExpr)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			report(n.Arrow, "blocking channel send")
		case *ast.SelectStmt:
			blocking := true
			for _, cl := range n.Body.List {
				blocking = blocking && cl.(*ast.CommClause).Comm != nil
			}
			for _, cl := range n.Body.List {
				switch comm := cl.(*ast.CommClause).Comm.(type) {
				case *ast.SendStmt:
					if blocking {
						report(comm.Arrow, "blocking channel send in select")
					}
					c.inspectForIO(comm.Chan, report, call)
					c.inspectForIO(comm.Value, report, call)
				case ast.Stmt:
					c.inspectForIO(comm, report, call)
				}
			}
			return false
		case *ast.CallExpr:
			if pos, desc, ok := c.directIO(n); ok {
				report(pos, desc)
			} else {
				call(n)
			}
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
