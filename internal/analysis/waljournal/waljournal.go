// Package waljournal implements the sharingvet waljournal analyzer: the
// write-ahead-log journaling discipline of the GRM state layer.
//
// Struct fields carrying a "wal:journaled" marker in their field comment
// are the durable state: recovery reconstructs them by replaying the log,
// so a mutation that is not paired with an appendLocked record silently
// diverges the recovered state from the live one. The analyzer enforces
// the repo's discipline syntactically: every write to a journaled field
// must happen
//
//   - inside a method whose name carries the *Locked suffix (so the
//     mutation is serialized under the state mutex), and
//   - in a function whose call graph (internal/analysis CallGraph)
//     reaches a method named appendLocked — the single point where
//     records enter the log.
//
// Fields marked "wal:derived" are the second class: state fully
// reconstructible from the journaled fields (the GRM's lazily built or
// incrementally patched planner, the only derived field left on
// grm.Server). Replay must not
// record them, but they shadow journaled state, so every write still has
// to be serialized under the state mutex — the analyzer requires the
// *Locked suffix for them while exempting them from the appendLocked
// reachability rule.
//
// Fields marked "wal:sharded" are the third class, introduced with the
// sharded GRM: a router field holding per-shard sub-servers (or their
// logs). The durable state behind such a field is journaled by each
// shard's own WAL — the shard's appendLocked, not the router's — so the
// router has no append point to reach. Rebinding the field (swapping a
// shard, attaching logs) still races the request routers, so every write
// must sit in a *Locked helper, exactly like wal:derived.
//
// Writes are assignments, ++/--, and the delete/copy builtins whose
// target expression passes through a journaled field ("s.avail[i] = x",
// "s.sys.Epoch++", "delete(s.leases, tok)" all count). Writes inside
// function literals are attributed to the enclosing declaration. Helpers
// that intentionally skip the log — snapshot installers whose callers
// journal the whole state, arithmetic helpers whose callers append the
// triggering record — carry a justified //lint:ignore. Mutations through
// a pointer alias ("le := s.leases[tok]; le.expires = t") are a
// documented blind spot shared with the other sharingvet walkers.
package waljournal

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer checks that journaled state is only mutated on paths that
// append a WAL record.
var Analyzer = &analysis.Analyzer{
	Name: "waljournal",
	Doc:  "writes to wal:journaled struct fields must occur in *Locked helpers whose call graph reaches appendLocked; wal:derived fields need the *Locked helper only",
	Run:  run,
}

const (
	marker        = "wal:journaled"
	derivedMarker = "wal:derived"
	shardedMarker = "wal:sharded"
)

func run(pass *analysis.Pass) error {
	journaled := collectMarked(pass, marker)
	derived := collectMarked(pass, derivedMarker)
	sharded := collectMarked(pass, shardedMarker)
	if len(journaled) == 0 && len(derived) == 0 && len(sharded) == 0 {
		return nil
	}
	cg := pass.CallGraph()
	var reaches map[*types.Func]bool
	if len(journaled) > 0 {
		var sinks []*types.Func
		for _, f := range cg.Funcs() {
			if f.Name() == "appendLocked" {
				sinks = append(sinks, f)
			}
		}
		if len(sinks) == 0 {
			// Journaled fields but no log append point: the package cannot
			// satisfy the discipline, so flag the annotation itself.
			pass.Reportf(pass.Files[0].Pos(), "package declares %s fields but no appendLocked method", marker)
			return nil
		}
		reaches = cg.ReachesAnyOf(sinks...)
	}

	for _, f := range cg.Funcs() {
		decl := cg.DeclOf(f)
		// One finding per (function, field): the fix is per-helper, not
		// per-assignment.
		seen := map[string]bool{}
		report := func(pos token.Pos, field string) {
			if seen[field] {
				return
			}
			seen[field] = true
			if !strings.HasSuffix(f.Name(), "Locked") {
				pass.Reportf(pos, "%s writes journaled field %s outside a *Locked helper; journaled state must be mutated under the WAL discipline", f.Name(), field)
				return
			}
			if !reaches[f] {
				pass.Reportf(pos, "%s writes journaled field %s but its call graph never reaches appendLocked; recovery would not replay this mutation", f.Name(), field)
			}
		}
		// Derived fields (rebuilt from journaled state, never replayed)
		// need the mutex serialization but not the log append.
		reportDerived := func(pos token.Pos, field string) {
			if seen[field] {
				return
			}
			seen[field] = true
			if !strings.HasSuffix(f.Name(), "Locked") {
				pass.Reportf(pos, "%s writes derived field %s outside a *Locked helper; state derived from the journal must be rebuilt under the state mutex", f.Name(), field)
			}
		}
		// Sharded fields route to per-shard servers that journal through
		// their own WALs; the router only needs the mutex serialization.
		reportSharded := func(pos token.Pos, field string) {
			if seen[field] {
				return
			}
			seen[field] = true
			if !strings.HasSuffix(f.Name(), "Locked") {
				pass.Reportf(pos, "%s writes sharded field %s outside a *Locked helper; per-shard WAL state must be rebound under the router mutex", f.Name(), field)
			}
		}
		checkTarget := func(e ast.Expr) {
			if field := journaledTarget(pass.TypesInfo, journaled, e); field != "" {
				report(e.Pos(), field)
			}
			if field := journaledTarget(pass.TypesInfo, derived, e); field != "" {
				reportDerived(e.Pos(), field)
			}
			if field := journaledTarget(pass.TypesInfo, sharded, e); field != "" {
				reportSharded(e.Pos(), field)
			}
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					checkTarget(lhs)
				}
			case *ast.IncDecStmt:
				checkTarget(n.X)
			case *ast.CallExpr:
				if isBuiltin(pass.TypesInfo, n, "delete") || isBuiltin(pass.TypesInfo, n, "copy") {
					if len(n.Args) > 0 {
						checkTarget(n.Args[0])
					}
				}
			}
			return true
		})
	}
	return nil
}

// collectMarked maps every struct field object whose field comment
// carries the given marker to its display name ("Server.avail").
func collectMarked(pass *analysis.Pass, want string) map[*types.Var]string {
	out := map[*types.Var]string{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, fld := range st.Fields.List {
					if !fieldMarked(fld, want) {
						continue
					}
					for _, name := range fld.Names {
						if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
							out[v] = ts.Name.Name + "." + name.Name
						}
					}
				}
			}
		}
	}
	return out
}

func fieldMarked(fld *ast.Field, want string) bool {
	for _, cg := range []*ast.CommentGroup{fld.Comment, fld.Doc} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if strings.Contains(c.Text, want) {
				return true
			}
		}
	}
	return false
}

// journaledTarget reports the journaled field a write target passes
// through, walking the selector chain outward-in: "s.avail[i]",
// "s.sys.Epoch", "(s.leases)" all resolve to their journaled root.
func journaledTarget(info *types.Info, journaled map[*types.Var]string, e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if v, ok := info.Uses[x.Sel].(*types.Var); ok {
				if name, ok := journaled[v]; ok {
					return name
				}
			}
			e = x.X
		default:
			return ""
		}
	}
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isB := info.Uses[id].(*types.Builtin)
	return isB
}
