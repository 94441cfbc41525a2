// Package netdeadline implements the sharingvet netdeadline analyzer:
// every raw network operation in the GRM protocol layer must be covered
// by a deadline. A Read or Write (or a json Encode/Decode whose
// stream is a conn) with no SetDeadline/SetReadDeadline/SetWriteDeadline
// call earlier in the same function blocks forever when the peer stalls
// — the hang class PR 1 eliminated; the analyzer keeps it eliminated.
//
// The "earlier" test is lexical from function entry, which matches how
// the codebase writes deadlines (a guarded `if timeout > 0 { SetDeadline
// }` directly before the op). Calls on named conn-wrapper types declared
// outside the net package (e.g. faultnet.Conn) are exempt: the wrapper's
// contract, not each call site, owns the deadline there.
package netdeadline

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer flags conn reads/writes not preceded by a deadline call.
var Analyzer = &analysis.Analyzer{
	Name: "netdeadline",
	Doc:  "flags net.Conn reads/writes (and conn-backed json codec calls) with no Set*Deadline earlier in the function",
	Run:  run,
}

var codecOps = map[string]bool{
	"(*encoding/json.Encoder).Encode": true,
	"(*encoding/json.Decoder).Decode": true,
}

// frameOps are the binary wire path's I/O entry points (transport
// wire.go): framed request/response exchange and the version handshake
// block on the conn the FrameReader/FrameWriter wraps, so they need the
// same deadline coverage as a raw Read/Write. Classified by callee
// package name + function name, like lockedio's transport table.
var frameOps = map[string]bool{
	"WriteFrame": true,
	"ReadFrame":  true,
	"WriteHello": true,
	"ReadHello":  true,
}

func run(pass *analysis.Pass) error {
	conn := analysis.LookupIface(pass.Pkg, "net", "Conn")
	if conn == nil {
		return nil // package never touches the network
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, conn, fd)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, conn *types.Interface, fd *ast.FuncDecl) {
	// Pass 1: find every deadline anchor and whether any conn-typed value
	// flows through the function (if none, codec calls encode to files,
	// HTTP responses, buffers, ... and are not network ops).
	var anchors []token.Pos
	connInScope := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "SetDeadline", "SetReadDeadline", "SetWriteDeadline":
					if recv := analysis.RecvType(pass.TypesInfo, n); analysis.Implements(recv, conn) {
						anchors = append(anchors, n.Pos())
					}
				}
			}
		case ast.Expr:
			if t := pass.TypesInfo.Types[n].Type; t != nil && analysis.Implements(t, conn) {
				connInScope = true
			}
		}
		return true
	})
	anchored := func(pos token.Pos) bool {
		for _, a := range anchors {
			if a < pos {
				return true
			}
		}
		return false
	}
	// Pass 2: flag unanchored network operations.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		full := analysis.MethodFullName(pass.TypesInfo, call)
		if codecOps[full] {
			if connInScope && !anchored(call.Pos()) {
				pass.Reportf(call.Pos(), "conn-backed %s with no Set*Deadline earlier in the function: a stalled peer blocks forever", full)
			}
			return true
		}
		if callee := analysis.Callee(pass.TypesInfo, call); callee != nil &&
			callee.Pkg() != nil && callee.Pkg().Name() == "transport" && frameOps[callee.Name()] {
			if connInScope && !anchored(call.Pos()) {
				pass.Reportf(call.Pos(), "conn-backed %s with no Set*Deadline earlier in the function: a stalled peer blocks forever", callee.Name())
			}
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Read" && sel.Sel.Name != "Write") {
			return true
		}
		recv := analysis.RecvType(pass.TypesInfo, call)
		if recv == nil || !analysis.Implements(recv, conn) {
			return true
		}
		if exemptWrapper(recv) {
			return true
		}
		if !anchored(call.Pos()) {
			pass.Reportf(call.Pos(), "conn.%s with no Set*Deadline earlier in the function: a stalled peer blocks forever", sel.Sel.Name)
		}
		return true
	})
}

// exemptWrapper reports whether t is a named conn wrapper declared
// outside package net — a type whose own implementation is responsible
// for deadlines (the "already-deadlined conn type" escape hatch).
func exemptWrapper(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if _, isIface := named.Underlying().(*types.Interface); isIface {
		return false // plain net.Conn-typed values get no exemption
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() != "net"
}
