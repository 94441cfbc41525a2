// Command agreements inspects a JSON agreements snapshot (the format
// cmd/grmd -agreements loads): it validates the file, prints every
// currency's value and every principal's transitive capacity per resource
// type, and flags overdrawn currencies.
//
// Usage:
//
//	agreements community.json
//	agreements -level 1 community.json     # direct agreements only
//	agreements lint community.json         # static validation only
//
// The lint subcommand runs Snapshot.Validate — the same paper-invariant
// checks a GRM applies before loading a snapshot — and exits non-zero
// when any error-severity finding is present.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/agreement"
	"repro/internal/core"
)

// readSnapshotFile opens and parses one snapshot file.
func readSnapshotFile(path string) (*agreement.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return agreement.ReadSnapshot(f)
}

// lint statically validates each snapshot and returns the process exit
// code: 0 when no file has error-severity findings, 1 otherwise.
func lint(paths []string) int {
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "usage: agreements lint <snapshot.json>...")
		return 2
	}
	exit := 0
	for _, path := range paths {
		snap, err := readSnapshotFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "agreements: lint: %v\n", err)
			exit = 1
			continue
		}
		findings := snap.Validate()
		for _, f := range findings {
			fmt.Printf("%s: %s\n", path, f)
		}
		if agreement.HasErrors(findings) {
			exit = 1
		} else {
			fmt.Printf("%s: ok (%d warnings)\n", path, len(findings))
		}
	}
	return exit
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "lint" {
		os.Exit(lint(os.Args[2:]))
	}
	level := flag.Int("level", 0, "transitivity level (0 = full closure)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: agreements [-level N] <snapshot.json>")
		fmt.Fprintln(os.Stderr, "       agreements lint <snapshot.json>...")
		os.Exit(2)
	}
	snap, err := readSnapshotFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "agreements: %v\n", err)
		os.Exit(1)
	}
	sys, principals, err := snap.Restore()
	if err != nil {
		fmt.Fprintf(os.Stderr, "agreements: %v\n", err)
		os.Exit(1)
	}

	names := make([]string, 0, len(principals))
	for name := range principals {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%d principals: %v\n", len(names), names)

	if err := sys.CheckConservative(); err != nil {
		if errors.Is(err, agreement.ErrOverdraft) {
			fmt.Printf("warning: %v\n", err)
			fmt.Println("         (legal overdraft; enforcement caps it at 100% per source)")
		} else {
			fmt.Fprintf(os.Stderr, "agreements: %v\n", err)
			os.Exit(1)
		}
	}

	for _, f := range snap.Validate() {
		fmt.Printf("lint %s\n", f)
	}

	types := sys.ResourceTypes()
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	for _, typ := range types {
		fmt.Printf("\nresource %q:\n", typ)
		values, err := sys.Values(typ)
		if err != nil {
			fmt.Fprintf(os.Stderr, "agreements: valuation: %v\n", err)
			os.Exit(1)
		}
		m, err := sys.SparseMatrices(typ)
		if err != nil {
			fmt.Fprintf(os.Stderr, "agreements: %v\n", err)
			os.Exit(1)
		}
		planner, err := core.NewAllocator(m.S, m.A, core.Config{Level: *level})
		if err != nil {
			fmt.Fprintf(os.Stderr, "agreements: %v\n", err)
			os.Exit(1)
		}
		caps := planner.Capacities(m.V)
		fmt.Printf("  %-16s %12s %12s %12s\n", "principal", "owned", "value", "capacity")
		for _, name := range names {
			p := principals[name]
			fmt.Printf("  %-16s %12.4g %12.4g %12.4g\n",
				name, m.V[p], values[sys.CurrencyOf(p)], caps[p])
		}
	}
}
