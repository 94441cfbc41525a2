// Command scenario manages the record/replay regression corpus (see
// SCENARIOS.md for the bundle format).
//
// Usage:
//
//	scenario run <bundle-dir>
//	scenario verify [-report file] <dir|dir/...> ...
//	scenario record [-seed N] [-steps N] [-ttl D] -o <bundle-dir>
//	scenario rebless <bundle-dir> ...
//	scenario seed [-dir scenarios]
//
// run replays one bundle and prints its trace; verify replays many and
// reports the first divergence of each (exit 1 if any diverged); record
// captures a seeded modeltest cluster schedule into a new bundle through
// the server tap; rebless re-runs bundles and rewrites their
// expected.jsonl from the live outcomes; seed regenerates the built-in
// corpus.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/modeltest"
	"repro/internal/scenario"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch cmd := os.Args[1]; cmd {
	case "run":
		err = cmdRun(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "record":
		err = cmdRecord(os.Args[2:])
	case "rebless":
		err = cmdRebless(os.Args[2:])
	case "seed":
		err = cmdSeed(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "scenario: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenario: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  scenario run <bundle-dir>
  scenario verify [-report file] <dir|dir/...> ...
  scenario record [-seed N] [-steps N] [-ttl D] -o <bundle-dir>
  scenario rebless <bundle-dir> ...
  scenario seed [-dir scenarios]`)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("run: want exactly one bundle directory")
	}
	b, err := scenario.ReadBundle(fs.Arg(0))
	if err != nil {
		return err
	}
	res, err := scenario.Replay(b, scenario.ReplayOptions{})
	if err != nil {
		return err
	}
	fmt.Print(res.Trace)
	if res.Divergence != nil {
		return fmt.Errorf("%s diverged:\n%v", res.Name, res.Divergence)
	}
	fmt.Printf("%s: %d events, no divergence\n", res.Name, res.Events)
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	report := fs.String("report", "", "write the divergence report to this file on failure")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("verify: want at least one bundle path (dir or dir/...)")
	}
	dirs, err := scenario.Discover(fs.Args())
	if err != nil {
		return err
	}
	if len(dirs) == 0 {
		return fmt.Errorf("verify: no bundles found under %v", fs.Args())
	}

	failures := 0
	var reportBody string
	for _, dir := range dirs {
		b, err := scenario.ReadBundle(dir)
		if err != nil {
			failures++
			fmt.Printf("FAIL %s (decode)\n  %v\n", dir, err)
			reportBody += fmt.Sprintf("== %s (decode) ==\n%v\n\n", dir, err)
			continue
		}
		res, err := scenario.Replay(b, scenario.ReplayOptions{})
		if err != nil {
			failures++
			fmt.Printf("FAIL %s (replay)\n  %v\n", dir, err)
			reportBody += fmt.Sprintf("== %s (replay) ==\n%v\n\n", dir, err)
			continue
		}
		if res.Divergence != nil {
			failures++
			fmt.Printf("FAIL %s\n  %v\n", dir, res.Divergence)
			reportBody += fmt.Sprintf("== %s ==\n%v\n\ntrace up to divergence:\n%s\n",
				dir, res.Divergence, res.Trace)
			continue
		}
		fmt.Printf("ok   %s (%d events)\n", dir, res.Events)
	}
	if failures > 0 {
		if *report != "" {
			if werr := os.WriteFile(*report, []byte(reportBody), 0o644); werr != nil {
				fmt.Fprintf(os.Stderr, "scenario: writing report: %v\n", werr)
			} else {
				fmt.Fprintf(os.Stderr, "scenario: divergence report written to %s\n", *report)
			}
		}
		return fmt.Errorf("verify: %d failure(s) across %d bundle(s)", failures, len(dirs))
	}
	return nil
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "modeltest cluster schedule seed")
	steps := fs.Int("steps", 60, "schedule operations to record")
	ttl := fs.Duration("ttl", 10*time.Second, "virtual lease TTL of the recorded cluster")
	out := fs.String("o", "", "bundle directory to write (required)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("record: -o is required")
	}
	bundle, rep, err := scenario.RecordCluster(modeltest.ClusterOptions{
		Seed:  *seed,
		Steps: *steps,
		TTL:   *ttl,
	}, time.Now())
	if err != nil {
		return err
	}
	if rep.Failure != nil {
		return fmt.Errorf("record: cluster run failed: %v", rep.Failure)
	}
	if err := scenario.WriteBundle(*out, bundle); err != nil {
		return err
	}
	fmt.Printf("recorded %d events (seed %d, %d steps) into %s\n",
		len(bundle.Events), *seed, rep.Steps, *out)
	return nil
}

func cmdRebless(args []string) error {
	fs := flag.NewFlagSet("rebless", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("rebless: want at least one bundle directory")
	}
	dirs, err := scenario.Discover(fs.Args())
	if err != nil {
		return err
	}
	for _, dir := range dirs {
		b, err := scenario.ReadBundle(dir)
		if err != nil {
			return err
		}
		res, err := scenario.Replay(b, scenario.ReplayOptions{Bless: true})
		if err != nil {
			return err
		}
		b.Expected = res.Actual
		if err := scenario.WriteBundle(dir, b); err != nil {
			return err
		}
		fmt.Printf("reblessed %s (%d events)\n", dir, res.Events)
	}
	return nil
}

func cmdSeed(args []string) error {
	fs := flag.NewFlagSet("seed", flag.ExitOnError)
	dir := fs.String("dir", "scenarios", "corpus directory to (re)generate")
	fs.Parse(args)
	written, err := scenario.Seed(*dir)
	for _, w := range written {
		fmt.Printf("seeded %s\n", w)
	}
	return err
}
