// Command lpsolve solves a linear program written in a small text format
// and prints the optimum — a direct command-line face for the internal
// simplex solver.
//
// Usage:
//
//	lpsolve problem.lp
//	echo 'min: 2x + 3y
//	c1: x + y >= 4' | lpsolve
//
// Format: one objective line ("min:" or "max:"), named constraints
// ("name: expr <= rhs"), optional bounds lines ("0 <= x <= 10") and free
// declarations ("free z"). See parseModel for details. It exits 1 on input
// it cannot read or parse, naming the line, and on a model with no optimum.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is lpsolve over the given arguments and streams; it returns the exit
// code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lpsolve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	duals := fs.Bool("duals", false, "also print constraint shadow prices")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 1 {
		fmt.Fprintln(stderr, "lpsolve: at most one input file")
		return 2
	}
	in := stdin
	if fs.NArg() == 1 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fmt.Fprintf(stderr, "lpsolve: %v\n", err)
			return 1
		}
		defer f.Close()
		in = f
	}
	if err := solve(in, stdout, *duals); err != nil {
		fmt.Fprintf(stderr, "lpsolve: %v\n", err)
		return 1
	}
	return 0
}

// solve parses a model from in, solves it and writes the optimum to out.
func solve(in io.Reader, out io.Writer, duals bool) error {
	m, err := parseModel(in)
	if err != nil {
		return err
	}
	sol, err := m.Solve()
	if err != nil {
		return err
	}
	if err := writeSolution(out, m, sol); err != nil {
		return err
	}
	if duals {
		for i := 0; i < m.NumConstraints(); i++ {
			if _, err := fmt.Fprintf(out, "dual %s = %.9g\n", m.ConstraintName(i), sol.Dual(i)); err != nil {
				return err
			}
		}
	}
	_, err = fmt.Fprintf(out, "pivots = %d\n", sol.Pivots)
	return err
}
