// Package netdeadline implements the sharingvet netdeadline analyzer:
// every raw network operation in the GRM protocol layer must be covered
// by a deadline in its own direction. A write (Write, WriteFrame,
// WriteHello, a json Encode whose stream is a conn) needs a SetDeadline or
// SetWriteDeadline call earlier in the same function, a read (Read,
// ReadFrame, ReadHello, json Decode) a SetDeadline or SetReadDeadline:
// without one it blocks forever when the peer stalls, and a deadline armed
// for the other direction does not bound it.
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
	"strings"

	"repro/internal/analysis"
)

// Analyzer flags conn reads/writes not preceded by a deadline call.
var Analyzer = &analysis.Analyzer{
	Name: "netdeadline",
	Doc:  "flags net.Conn reads/writes (and conn-backed json codec calls) with no Set*Deadline earlier in the function",
	Run:  run,
}

// dirs gives each network operation the direction it blocks in, and each
// deadline call the directions it bounds: 1 a read, 2 a write, 3 both. The
// operations are raw conn methods, json codec calls, and the binary wire
// path's framed exchange and version handshake (transport wire.go), which
// block on the conn the FrameReader/FrameWriter wraps; those are
// classified by callee package name + function name, like lockedio's
// transport table. Only the deadlines and raw Read and Write go unqualified.
var dirs = map[string]int{
	"SetDeadline": 3, "SetReadDeadline": 1, "SetWriteDeadline": 2,
	"Read": 1, "Write": 2,
	"(*encoding/json.Decoder).Decode": 1, "(*encoding/json.Encoder).Encode": 2,
	"transport.ReadFrame": 1, "transport.ReadHello": 1, "transport.WriteFrame": 2, "transport.WriteHello": 2,
}

// wants names the deadline calls that bound each direction.
var wants = [...]string{1: "SetDeadline or SetReadDeadline", 2: "SetDeadline or SetWriteDeadline"}

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
	// Pass 1: find every deadline anchor, with the directions it bounds,
	// and whether any conn-typed value flows through the function (if
	// none, codec calls encode to files, HTTP responses, buffers, ... and
	// are not network ops).
	type anchor struct {
		pos token.Pos
		dir int
	}
	var anchors []anchor
	connInScope := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "Set") && dirs[sel.Sel.Name] != 0 {
				if recv := analysis.RecvType(pass.TypesInfo, n); analysis.Implements(recv, conn) {
					anchors = append(anchors, anchor{n.Pos(), dirs[sel.Sel.Name]})
				}
			}
		case ast.Expr:
			if t := pass.TypesInfo.Types[n].Type; t != nil && analysis.Implements(t, conn) {
				connInScope = true
			}
		}
		return true
	})
	anchored := func(pos token.Pos, dir int) bool {
		for _, a := range anchors {
			if a.pos < pos && a.dir&dir != 0 {
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
		name := analysis.MethodFullName(pass.TypesInfo, call)
		if callee := analysis.Callee(pass.TypesInfo, call); callee != nil && callee.Pkg() != nil && callee.Pkg().Name() == "transport" {
			name = "transport." + callee.Name()
		}
		if dir := dirs[name]; dir != 0 {
			if connInScope && !anchored(call.Pos(), dir) {
				pass.Reportf(call.Pos(), "conn-backed %s with no %s earlier in the function: a stalled peer blocks forever", strings.TrimPrefix(name, "transport."), wants[dir])
			}
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Read" && sel.Sel.Name != "Write") {
			return true
		}
		recv := analysis.RecvType(pass.TypesInfo, call)
		if recv == nil || !analysis.Implements(recv, conn) || exemptWrapper(recv) {
			return true
		}
		if dir := dirs[sel.Sel.Name]; !anchored(call.Pos(), dir) {
			pass.Reportf(call.Pos(), "conn.%s with no %s earlier in the function: a stalled peer blocks forever", sel.Sel.Name, wants[dir])
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
