// Command walupgrade rewrites GRM write-ahead log directories that builds
// older than the GWAL file magic wrote — JSON records, the first binary
// encoding, binary records behind 8-byte frame headers, or a mix of them —
// in the one format grmd reads, keeping every record and its sequence
// number. grmd refuses such a directory until it has been upgraded.
//
// Usage:
//
//	walupgrade DIR...
//
// Run it with grmd stopped, once per log directory; a sharded -wal-dir is
// upgraded one shard<i>/ subdirectory at a time (walupgrade DIR/shard*).
// A file already in the current format is left byte for byte as it is, so
// a second run changes nothing, and a run a crash cut short is completed by
// running it again. A torn or corrupt tail, which grmd would trim at its
// next open, is dropped and reported.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/store/legacy"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run upgrades each directory of args in turn, stopping at the first that
// fails, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("walupgrade", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: walupgrade DIR...  (a sharded -wal-dir one shard<i>/ directory at a time)")
	}
	if err := fs.Parse(args); err != nil || fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	for _, dir := range fs.Args() {
		if err := legacy.Upgrade(dir, stdout); err != nil {
			fmt.Fprintf(stderr, "walupgrade: %v\n", err)
			return 1
		}
	}
	return 0
}
