// Package analysis is a small, dependency-free clone of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// typechecked package through a Pass and reports Diagnostics. The build
// environment bakes in only the Go toolchain, so the suite cannot depend
// on x/tools; the subset implemented here (single-pass analyzers, golden
// tests, lint:ignore suppression) is all sharingvet needs.
//
// Suppression: a finding is dropped when the line it is reported on, or
// the line directly above it, carries a directive: a comment that begins
//
//	//lint:ignore sharingvet/<analyzer> reason
//
// and a function's doc comment carrying the directive suppresses that
// analyzer for the whole function body. One directive may name several
// analyzers, comma-separated (the sharingvet/ prefix is optional per
// name): //lint:ignore sharingvet/lockedio,netdeadline reason. Check
// reports a directive that suppresses nothing.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// Analyzer is one named invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in lint:ignore
	// directives (sharingvet/<Name>).
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Run inspects the package in pass and reports findings via
	// pass.Reportf. A non-nil error aborts the whole run (reserved for
	// internal failures, not findings).
	Run func(pass *Pass) error
}

// Pass hands one typechecked package to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
	cg    *CallGraph // lazily built by Pass.CallGraph
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (sharingvet/%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes one analyzer over the package and returns its findings
// with lint:ignore suppressions already applied, sorted by position.
func Run(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	return collectSuppressions(fset, files).run([]*Analyzer{a}, fset, files, pkg, info)
}

// Check runs every analyzer in as over the package as Run does, and
// reports besides each lint:ignore directive naming an analyzer that is
// not in as, or one that suppressed none of its findings: a suppression
// that suppresses nothing would hide the next finding on its line unseen.
func Check(as []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	sup := collectSuppressions(fset, files)
	diags, err := sup.run(as, fset, files, pkg, info)
	if err != nil {
		return nil, err
	}
	run := map[string]bool{}
	for _, a := range as {
		run[a.Name] = true
	}
	for _, d := range sup.directives {
		for _, name := range d.names {
			var msg string
			switch {
			case !run[name]:
				msg = "directive names " + name + ", which does not run on this package"
			case !d.used[name]:
				msg = "directive suppresses no " + name + " finding"
			default:
				continue
			}
			diags = append(diags, Diagnostic{Pos: d.pos, Analyzer: "lint:ignore", Message: msg})
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

// run executes the analyzers and keeps the findings s does not suppress,
// sorted by position.
func (s *suppressions) run(as []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	var kept []Diagnostic
	for _, a := range as {
		pass := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
		for _, d := range pass.diags {
			if !s.suppresses(a.Name, d.Pos) {
				kept = append(kept, d)
			}
		}
	}
	sortDiagnostics(kept)
	return kept, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
}

// ignoreRE matches a directive: a comment that begins //lint:ignore and
// names one or more analyzers. A comment quoting one further in is prose.
var ignoreRE = regexp.MustCompile(`^//lint:ignore\s+((?:(?:sharingvet/)?[A-Za-z0-9_]+)(?:\s*,\s*(?:sharingvet/)?[A-Za-z0-9_]+)*)`)

// ignoreNames expands one matched directive argument into the analyzer
// names it suppresses: comma-separated, each optionally prefixed with
// sharingvet/.
func ignoreNames(arg string) []string {
	var names []string
	for _, part := range strings.Split(arg, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "sharingvet/")
		if part != "" {
			names = append(names, part)
		}
	}
	return names
}

// directive is one lint:ignore comment, and the names it suppressed a
// finding for.
type directive struct {
	pos   token.Position
	names []string
	used  map[string]bool
}

type suppressions struct {
	directives []*directive
	// lines maps file -> line -> the directives on that line.
	lines map[string]map[int][]*directive
	// spans are whole-function suppressions: [fromLine, toLine] per file.
	spans map[string][]span
}

type span struct {
	d        *directive
	from, to int
}

func collectSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	s := &suppressions{
		lines: map[string]map[int][]*directive{},
		spans: map[string][]span{},
	}
	byComment := map[*ast.Comment]*directive{}
	for _, f := range files {
		fname := fset.Position(f.Pos()).Filename
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				d := &directive{pos: fset.Position(c.Pos()), names: ignoreNames(m[1]), used: map[string]bool{}}
				s.directives = append(s.directives, d)
				byComment[c] = d
				if s.lines[fname] == nil {
					s.lines[fname] = map[int][]*directive{}
				}
				s.lines[fname][d.pos.Line] = append(s.lines[fname][d.pos.Line], d)
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			// Doc.Text() strips //lint:... directives, so match the raw list.
			for _, c := range fd.Doc.List {
				if d := byComment[c]; d != nil {
					s.spans[fname] = append(s.spans[fname], span{
						d:    d,
						from: fset.Position(fd.Pos()).Line,
						to:   fset.Position(fd.End()).Line,
					})
				}
			}
		}
	}
	return s
}

// suppresses reports whether a directive suppresses analyzer's finding at
// pos, and marks every directive that does as used.
func (s *suppressions) suppresses(analyzer string, pos token.Position) bool {
	found := false
	mark := func(d *directive) {
		if slices.Contains(d.names, analyzer) {
			d.used[analyzer], found = true, true
		}
	}
	if lines := s.lines[pos.Filename]; lines != nil {
		for _, l := range []int{pos.Line, pos.Line - 1} {
			for _, d := range lines[l] {
				mark(d)
			}
		}
	}
	for _, sp := range s.spans[pos.Filename] {
		if pos.Line >= sp.from && pos.Line <= sp.to {
			mark(sp.d)
		}
	}
	return found
}
