// Command sharingvet is the repo's domain-specific lint suite: a
// multichecker (in the style of golang.org/x/tools/go/analysis, but
// stdlib-only) enforcing the invariants the paper's enforcement model
// and the GRM/LRM concurrency layer depend on:
//
//	floateq      no ==/!= on floats in the numeric layers (lp,
//	             transitive, core, planners, agreement); use internal/num
//	lockedio     no conn I/O, dial, codec call or blocking channel send
//	             while holding a mutex in internal/grm
//	netdeadline  every conn read/write in internal/grm{,/transport} is
//	             preceded by a Set*Deadline on a path from function entry
//	errwrap      errors crossing internal/* package boundaries wrap
//	             their cause with %w so errors.Is/As keep working
//	lockorder    mutex-acquisition graph over the package call graph:
//	             cycles, double acquisition, *Locked suffix discipline
//	waljournal   writes to wal:journaled Server fields must happen in
//	             *Locked helpers whose call graph reaches appendLocked
//	wiretag      binary envelope kind tags and field order must match
//	             the checked-in wire_manifest.json
//
// Usage:
//
//	sharingvet ./...
//	sharingvet -list
//	sharingvet -json ./internal/grm
//	sharingvet -write-wire-manifest ./internal/grm
//
// Findings are suppressed per line or per function with
//
//	//lint:ignore sharingvet/<analyzer> reason
//
// (one directive may name several comma-separated analyzers). A
// directive that suppresses nothing, or that names an analyzer not run on
// its package, is a finding itself. With -json, findings are emitted as a
// JSON array on stdout for CI artifacts. Exit status: 0 clean, 1
// findings, 2 load/internal errors, among them a pattern that matches no
// package.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/errwrap"
	"repro/internal/analysis/floateq"
	"repro/internal/analysis/lockedio"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/netdeadline"
	"repro/internal/analysis/waljournal"
	"repro/internal/analysis/wiretag"
)

// check binds an analyzer to the packages its invariant governs.
type check struct {
	analyzer *analysis.Analyzer
	// scope returns whether the analyzer runs on a package, given its
	// import path relative to the module root ("internal/lp", ...).
	scope func(rel string) bool
	where string // human-readable scope, for -list
}

func checks() []check {
	numeric := map[string]bool{
		"internal/lp": true, "internal/transitive": true,
		"internal/core": true, "internal/planners": true,
		"internal/agreement": true,
	}
	grmLayer := map[string]bool{"internal/grm": true, "internal/grm/transport": true}
	return []check{
		{floateq.Analyzer, func(rel string) bool { return numeric[rel] }, "internal/{lp,transitive,core,planners,agreement}"},
		{lockedio.Analyzer, func(rel string) bool { return rel == "internal/grm" }, "internal/grm"},
		{netdeadline.Analyzer, func(rel string) bool { return grmLayer[rel] }, "internal/grm{,/transport}"},
		{errwrap.Analyzer, func(rel string) bool { return strings.HasPrefix(rel, "internal/") }, "internal/..."},
		{lockorder.Analyzer, func(rel string) bool { return grmLayer[rel] }, "internal/grm{,/transport}"},
		{waljournal.Analyzer, func(rel string) bool { return rel == "internal/grm" }, "internal/grm"},
		{wiretag.Analyzer, func(rel string) bool { return rel == "internal/grm" }, "internal/grm"},
	}
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	verbose := flag.Bool("v", false, "print every package as it is analyzed")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	writeManifest := flag.Bool("write-wire-manifest", false, "regenerate wire_manifest.json for packages in wiretag's scope, then exit")
	flag.Parse()
	if *list {
		for _, c := range checks() {
			fmt.Printf("%-12s %s\n             scope: %s\n", c.analyzer.Name, c.analyzer.Doc, c.where)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	os.Exit(run(os.Stdout, os.Stderr, patterns, *verbose, *jsonOut, *writeManifest))
}

// jsonFinding is the -json output shape, one element per finding.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run(stdout, stderr io.Writer, patterns []string, verbose, jsonOut, writeManifest bool) int {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "sharingvet:", err)
		return 2
	}
	root, modPath, err := analysis.FindModule(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "sharingvet:", err)
		return 2
	}
	pkgs, err := analysis.ResolvePatterns(root, modPath, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "sharingvet:", err)
		return 2
	}
	loader := analysis.NewLoader()
	status := 0
	findings := []jsonFinding{}
	for _, pk := range pkgs {
		dir, ip := pk[0], pk[1]
		rel := strings.TrimPrefix(strings.TrimPrefix(ip, modPath), "/")
		var active []*analysis.Analyzer
		for _, c := range checks() {
			if c.scope(rel) {
				active = append(active, c.analyzer)
			}
		}
		if writeManifest && !slices.Contains(active, wiretag.Analyzer) {
			continue
		}
		if verbose {
			fmt.Fprintf(stderr, "sharingvet: %s\n", ip)
		}
		p, err := loader.LoadDir(dir, ip)
		if err != nil {
			fmt.Fprintf(stderr, "sharingvet: %s: %v\n", ip, err)
			status = 2
			continue
		}
		for _, terr := range p.TypeErrors {
			fmt.Fprintf(stderr, "sharingvet: %s: typecheck: %v\n", ip, terr)
			status = 2
		}
		if writeManifest {
			path := filepath.Join(dir, wiretag.ManifestName)
			if err := wiretag.WriteManifest(p.Files, p.Info, path); err != nil {
				fmt.Fprintf(stderr, "sharingvet: %s: %v\n", ip, err)
				status = 2
				continue
			}
			fmt.Fprintf(stderr, "sharingvet: wrote %s\n", path)
			continue
		}
		diags, err := analysis.Check(active, loader.Fset, p.Files, p.Types, p.Info)
		if err != nil {
			fmt.Fprintf(stderr, "sharingvet: %s: %v\n", ip, err)
			status = 2
			continue
		}
		for _, d := range diags {
			if jsonOut {
				findings = append(findings, jsonFinding{
					File:     d.Pos.Filename,
					Line:     d.Pos.Line,
					Column:   d.Pos.Column,
					Analyzer: d.Analyzer,
					Message:  d.Message,
				})
			} else {
				fmt.Fprintln(stdout, d)
			}
			if status == 0 {
				status = 1
			}
		}
	}
	if jsonOut && !writeManifest {
		out, err := json.MarshalIndent(findings, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "sharingvet:", err)
			return 2
		}
		fmt.Fprintln(stdout, string(out))
	}
	return status
}
