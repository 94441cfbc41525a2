// Package wiretag implements the sharingvet wiretag analyzer: stability
// of the binary envelope layout against a checked-in golden manifest.
//
// The binary codec (internal/grm/codec.go) defines the wire format
// twice: a const block of kind tags ("kindAlloc") whose numeric values
// go on the wire, and append functions whose ordered wirefmt.Append*
// calls fix each kind's field layout. Both are trivially easy to break
// silently — inserting a const mid-iota renumbers every later tag,
// reordering two Append calls shifts every later field — and the decoder
// on the other end of the connection may have been built from an older
// commit. The analyzer extracts the layout from source:
//
//   - every package-scope constant named kind* and its value;
//   - for appendRequest and appendResponse, the Append* call sequence of
//     each switch case, keyed by the kind tag the case emits, plus the
//     prelude calls before the switch (the response's leading error
//     string).
//
// and compares it against wire_manifest.json in the package directory.
// Renumbered tags, reused tag values, removed kinds, and changed field
// sequences are findings; kinds absent from the manifest ask for a
// manifest refresh (sharingvet -write-wire-manifest) so additions are an
// explicit, reviewed act.
package wiretag

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// ManifestName is the golden file checked against, resolved relative to
// the analyzed package's directory.
const ManifestName = "wire_manifest.json"

// Analyzer checks the binary envelope layout against the manifest.
var Analyzer = &analysis.Analyzer{
	Name: "wiretag",
	Doc:  "kind tags and field order of the binary envelope codec must match the checked-in wire_manifest.json",
	Run:  run,
}

// Manifest is the golden description of the envelope layout.
type Manifest struct {
	// Kinds maps each kind constant to its wire value.
	Kinds map[string]int64 `json:"kinds"`
	// RequestPrelude / ResponsePrelude are the Append* ops emitted before
	// the kind switch (the response's error string).
	RequestPrelude  []string `json:"request_prelude,omitempty"`
	ResponsePrelude []string `json:"response_prelude,omitempty"`
	// Request / Response map each kind to the ordered Append* ops of its
	// payload fields (the op name with the Append prefix stripped).
	Request  map[string][]string `json:"request"`
	Response map[string][]string `json:"response"`
}

// positions anchors findings to declarations.
type positions struct {
	kinds    map[string]token.Pos // const name -> its declaration
	request  map[string]token.Pos // kind -> case clause in appendRequest
	response map[string]token.Pos
	constBlk token.Pos // the kind const block
}

// Extract pulls the envelope layout out of a typechecked package.
// Returns nil when the package declares no kind* constants (it has no
// envelope codec).
func Extract(files []*ast.File, info *types.Info) (*Manifest, *positions) {
	m := &Manifest{
		Kinds:    map[string]int64{},
		Request:  map[string][]string{},
		Response: map[string][]string{},
	}
	pos := &positions{
		kinds:    map[string]token.Pos{},
		request:  map[string]token.Pos{},
		response: map[string]token.Pos{},
	}
	for _, file := range files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if !strings.HasPrefix(name.Name, "kind") {
						continue
					}
					c, ok := info.Defs[name].(*types.Const)
					if !ok {
						continue
					}
					v, ok := constant.Int64Val(constant.ToInt(c.Val()))
					if !ok {
						continue
					}
					m.Kinds[name.Name] = v
					pos.kinds[name.Name] = name.Pos()
					if pos.constBlk == token.NoPos {
						pos.constBlk = gd.Pos()
					}
				}
			}
		}
	}
	if len(m.Kinds) == 0 {
		return nil, nil
	}
	for _, file := range files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			switch fd.Name.Name {
			case "appendRequest":
				m.RequestPrelude = extractCases(fd, info, m.Kinds, m.Request, pos.request)
			case "appendResponse":
				m.ResponsePrelude = extractCases(fd, info, m.Kinds, m.Response, pos.response)
			}
		}
	}
	return m, pos
}

// extractCases walks one append function: ops before the switch form the
// prelude; each case contributes its kind (first tagged Append) and the
// ordered field ops after it.
func extractCases(fd *ast.FuncDecl, info *types.Info, kinds map[string]int64, out map[string][]string, at map[string]token.Pos) (prelude []string) {
	for _, st := range fd.Body.List {
		sw, isSwitch := st.(*ast.SwitchStmt)
		if !isSwitch {
			prelude = append(prelude, opsIn(st, info, kinds, nil)...)
			continue
		}
		for _, cl := range sw.Body.List {
			cc, ok := cl.(*ast.CaseClause)
			if !ok {
				continue
			}
			var kind string
			var ops []string
			for _, s := range cc.Body {
				ops = append(ops, opsIn(s, info, kinds, &kind)...)
			}
			if kind == "" {
				continue // a case that emits no envelope (error return)
			}
			// ops[0] is the kind tag itself; the rest are the fields.
			out[kind] = ops[1:]
			if len(out[kind]) == 0 {
				out[kind] = []string{}
			}
			at[kind] = cc.Pos()
		}
		break
	}
	return prelude
}

// opsIn collects the Append* call ops under n in source order. When
// kind is non-nil and still unset, the first op whose argument is a kind
// constant names the case's kind; ops before it are ignored.
func opsIn(n ast.Node, info *types.Info, kinds map[string]int64, kind *string) []string {
	var ops []string
	ast.Inspect(n, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		if !strings.HasPrefix(name, "Append") {
			return true
		}
		if kind != nil && *kind == "" {
			if k := kindArg(call, info, kinds); k != "" {
				*kind = k
				ops = append(ops, strings.TrimPrefix(name, "Append"))
				return true
			}
			return true // ops before the tag do not describe this kind
		}
		ops = append(ops, strings.TrimPrefix(name, "Append"))
		return true
	})
	return ops
}

func calleeName(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// kindArg returns the kind constant an Append call carries, if any.
func kindArg(call *ast.CallExpr, info *types.Info, kinds map[string]int64) string {
	for _, arg := range call.Args {
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok {
			continue
		}
		if _, isConst := info.Uses[id].(*types.Const); !isConst {
			continue
		}
		if _, ok := kinds[id.Name]; ok {
			return id.Name
		}
	}
	return ""
}

func run(pass *analysis.Pass) error {
	m, pos := Extract(pass.Files, pass.TypesInfo)
	if m == nil {
		return nil
	}
	// Tag reuse is wrong with or without a manifest.
	byVal := map[int64][]string{}
	for name, v := range m.Kinds {
		byVal[v] = append(byVal[v], name)
	}
	for v, names := range byVal {
		if len(names) > 1 {
			sort.Strings(names)
			pass.Reportf(pos.kinds[names[1]], "wire tag %d reused by %s; every kind needs a distinct tag", v, strings.Join(names, " and "))
		}
	}

	dir := filepath.Dir(pass.Fset.Position(pass.Files[0].Pos()).Filename)
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		pass.Reportf(pos.constBlk, "package defines wire kind tags but has no %s; generate it with sharingvet -write-wire-manifest", ManifestName)
		return nil
	}
	var want Manifest
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("wiretag: parse %s: %w", ManifestName, err)
	}

	var names []string
	for name := range want.Kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		wantV := want.Kinds[name]
		gotV, ok := m.Kinds[name]
		if !ok {
			pass.Reportf(pos.constBlk, "wire kind %s (tag %d) removed from the codec but present in %s; existing peers still use it", name, wantV, ManifestName)
			continue
		}
		if gotV != wantV {
			pass.Reportf(pos.kinds[name], "wire kind %s renumbered: %s says %d, source says %d; tags are the wire format, only append new ones", name, ManifestName, wantV, gotV)
		}
	}
	for name, v := range m.Kinds {
		if _, ok := want.Kinds[name]; !ok {
			pass.Reportf(pos.kinds[name], "wire kind %s (tag %d) is not in %s; review the layout and refresh it with sharingvet -write-wire-manifest", name, v, ManifestName)
		}
	}

	checkOps := func(label string, wantOps, gotOps map[string][]string, at map[string]token.Pos) {
		var kinds []string
		for name := range wantOps {
			kinds = append(kinds, name)
		}
		sort.Strings(kinds)
		for _, name := range kinds {
			got, ok := gotOps[name]
			if !ok {
				continue // kind removal already reported above
			}
			if _, known := want.Kinds[name]; !known {
				continue // new kind already reported above
			}
			if !equalOps(wantOps[name], got) {
				pass.Reportf(at[name], "%s field layout for %s changed: %s says [%s], source says [%s]; reordering or retyping fields breaks the wire format",
					label, name, ManifestName, strings.Join(wantOps[name], " "), strings.Join(got, " "))
			}
		}
	}
	checkOps("request", want.Request, m.Request, pos.request)
	checkOps("response", want.Response, m.Response, pos.response)
	if !equalOps(want.RequestPrelude, m.RequestPrelude) {
		pass.Reportf(pos.constBlk, "request envelope prelude changed: %s says [%s], source says [%s]",
			ManifestName, strings.Join(want.RequestPrelude, " "), strings.Join(m.RequestPrelude, " "))
	}
	if !equalOps(want.ResponsePrelude, m.ResponsePrelude) {
		pass.Reportf(pos.constBlk, "response envelope prelude changed: %s says [%s], source says [%s]",
			ManifestName, strings.Join(want.ResponsePrelude, " "), strings.Join(m.ResponsePrelude, " "))
	}
	return nil
}

func equalOps(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// WriteManifest extracts the layout from a typechecked package and
// writes it as deterministic JSON to path. Used by sharingvet's
// -write-wire-manifest mode.
func WriteManifest(files []*ast.File, info *types.Info, path string) error {
	m, _ := Extract(files, info)
	if m == nil {
		return fmt.Errorf("wiretag: package declares no kind* constants")
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
