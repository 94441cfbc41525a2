package modeltest

import (
	"flag"
	"os"
	"strings"
	"testing"
	"time"
)

var (
	treeSeedFlag  = flag.Int64("tree-seed", 1, "seed for the tree-cluster schedule")
	treeStepsFlag = flag.Int("tree-steps", 50, "operations per tree run")
)

// TestModelTree drives the three-level GRM tree — root, mids, sharded
// leaf clusters — through the seeded schedule. Replay a failure with:
// go test ./internal/modeltest -run TestModelTree -tree-seed <s>
func TestModelTree(t *testing.T) {
	for _, seed := range []int64{*treeSeedFlag, *treeSeedFlag + 1} {
		rep, err := RunTree(TreeOptions{Seed: seed, Steps: *treeStepsFlag})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Failure != nil {
			t.Fatalf("%s\ntrail:\n%s", rep.Failure.Error(), tail(rep.Trace, 10))
		}
		if rep.Levels < 3 {
			t.Fatalf("tree ran %d levels, want 3", rep.Levels)
		}
		if rep.Restarts < 1 {
			t.Fatalf("schedule performed no leaf-cluster restart")
		}
		t.Logf("seed %d: %d steps, %d principals, %d LRMs, %d restarts, %.3g still borrowed",
			seed, rep.Steps, rep.Principals, rep.LRMs, rep.Restarts, rep.Borrowed)
	}
}

// TestModelTreeDeterministic: the same seed must produce a byte-identical
// trace across the whole tree — the replay contract at every level,
// leaf-cluster restarts included.
func TestModelTreeDeterministic(t *testing.T) {
	opts := TreeOptions{Seed: *treeSeedFlag, Steps: *treeStepsFlag}
	a, err := RunTree(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTree(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Failure != nil || b.Failure != nil {
		t.Fatalf("runs not clean: %v / %v", a.Failure, b.Failure)
	}
	if len(a.Trace) != len(b.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			t.Fatalf("traces diverge at step %d:\n%s\n%s", i, a.Trace[i], b.Trace[i])
		}
	}
}

// TestModelTreeCoversOps sanity-checks the schedule reaches the deep
// transitions: allocations that borrow up the tree, releases, upstream
// refreshes, and a mid-run leaf restart.
func TestModelTreeCoversOps(t *testing.T) {
	rep, err := RunTree(TreeOptions{Seed: *treeSeedFlag, Steps: 120})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failure != nil {
		t.Fatalf("%s\ntrail:\n%s", rep.Failure.Error(), tail(rep.Trace, 10))
	}
	joined := strings.Join(rep.Trace, "\n")
	for _, want := range []string{"alloc", "deep", "release", "upstream", "restart", "bulkreport"} {
		if !strings.Contains(joined, want) {
			t.Errorf("schedule never performed a %q operation", want)
		}
	}
}

// TestModelTreeScale is the full-size run: 3 GRM levels, 16 leaf shards,
// 100000 leaf principals, and a fleet of 1000 wire LRMs, replayed twice
// to prove the trace is byte-identical at scale. It only runs when
// MODELTEST_SCALE is set (the CI scale job): the full tree takes minutes
// of wall clock on one core.
func TestModelTreeScale(t *testing.T) {
	if os.Getenv("MODELTEST_SCALE") == "" {
		t.Skip("set MODELTEST_SCALE=1 to run the 10^5-principal tree")
	}
	opts := TreeOptions{
		Seed:          *treeSeedFlag,
		Steps:         40,
		Mids:          2,
		LeavesPerMid:  2,
		ShardsPerLeaf: 4,
		Principals:    100_000,
		LRMs:          1000,
	}
	start := time.Now()
	a, err := RunTree(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Failure != nil {
		t.Fatalf("%s\ntrail:\n%s", a.Failure.Error(), tail(a.Trace, 10))
	}
	if a.Principals != 100_000 || a.LRMs != 1000 {
		t.Fatalf("realized %d principals / %d LRMs, want 100000 / 1000", a.Principals, a.LRMs)
	}
	if a.Restarts < 1 {
		t.Fatal("scale schedule performed no leaf-cluster restart")
	}
	t.Logf("scale run: %d steps in %v, %d restarts, %.3g still borrowed, peak RSS %s",
		a.Steps, time.Since(start), a.Restarts, a.Borrowed, vmHWM())

	start = time.Now()
	b, err := RunTree(opts)
	if err != nil {
		t.Fatal(err)
	}
	if b.Failure != nil {
		t.Fatal(b.Failure.Error())
	}
	t.Logf("scale replay: %v, peak RSS %s", time.Since(start), vmHWM())
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			t.Fatalf("scale traces diverge at step %d:\n%s\n%s", i, a.Trace[i], b.Trace[i])
		}
	}
}

// vmHWM returns the process's peak resident set as /proc/self/status
// reports it ("123456 kB"), or "unknown" off Linux — logged, never gated,
// so the uploaded scale-run log records memory at 10^5 principals.
func vmHWM() string {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strings.TrimSpace(rest)
		}
	}
	return "unknown"
}
