package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, typechecked package ready for analysis.
type Package struct {
	Path  string // import path
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors holds soft typechecking errors; analysis proceeds on the
	// partial information go/types still provides.
	TypeErrors []error
}

// Loader parses and typechecks packages from source. Dependencies —
// including the standard library — are typechecked through go/types'
// source importer, so no export data or network access is needed. One
// Loader shares a FileSet and an import cache across every LoadDir call.
type Loader struct {
	Fset *token.FileSet
	imp  types.Importer
}

// NewLoader returns a loader. Cgo is disabled process-wide so the source
// importer resolves the pure-Go variants of std packages like net.
func NewLoader() *Loader {
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		Fset: fset,
		imp:  importer.ForCompiler(fset, "source", nil),
	}
}

// LoadDir parses the non-test Go files in dir and typechecks them as the
// package with the given import path.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no buildable Go files in %s", dir)
	}
	pkg := &Package{Path: importPath, Dir: dir, Files: files}
	conf := types.Config{
		Importer:    l.imp,
		FakeImportC: true,
		Error:       func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tpkg, _ := conf.Check(importPath, l.Fset, files, info)
	pkg.Types = tpkg
	pkg.Info = info
	return pkg, nil
}

// FindModule locates the enclosing go.mod starting at dir and returns the
// module root directory and module path.
func FindModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if p, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(p), nil
				}
			}
			return "", "", fmt.Errorf("no module line in %s/go.mod", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("no go.mod found above %s", abs)
		}
	}
}

// ResolvePatterns expands Go-style package patterns ("./...",
// "./internal/...", "./cmd/sharingvet", "./cmd/sharingvet/") into
// (dir, importPath) pairs for every directory under the module root that
// contains non-test Go files. A pattern that matches no such directory is
// an error: a lint run over nothing must not read as clean.
func ResolvePatterns(root, modPath string, patterns []string) ([][2]string, error) {
	type rule struct {
		pat     string
		prefix  string // relative dir, "" = root
		tree    bool   // trailing /...
		matched bool
	}
	var rules []*rule
	for _, pat := range patterns {
		r := &rule{pat: pat, prefix: path.Clean(filepath.ToSlash(pat))}
		r.prefix, r.tree = strings.CutSuffix(r.prefix, "...")
		r.prefix = strings.TrimSuffix(r.prefix, "/")
		if r.prefix == "." {
			r.prefix = ""
		}
		rules = append(rules, r)
	}
	matching := func(rel string) []*rule {
		var hit []*rule
		for _, r := range rules {
			if rel == r.prefix || r.tree && (r.prefix == "" || strings.HasPrefix(rel, r.prefix+"/")) {
				hit = append(hit, r)
			}
		}
		return hit
	}
	var out [][2]string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if rel == "." {
			rel = ""
		}
		hit := matching(rel)
		if len(hit) == 0 {
			return nil
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			n := e.Name()
			if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				ip := modPath
				if rel != "" {
					ip = modPath + "/" + rel
				}
				out = append(out, [2]string{path, ip})
				for _, r := range hit {
					r.matched = true
				}
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rules {
		if !r.matched {
			return nil, fmt.Errorf("pattern %s matches no package", r.pat)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][1] < out[j][1] })
	return out, nil
}
