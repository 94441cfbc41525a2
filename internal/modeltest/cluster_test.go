package modeltest

import (
	"flag"
	"strings"
	"testing"
)

var (
	clusterSeedFlag  = flag.Int64("cluster-seed", 1, "seed for the cluster schedule")
	clusterStepsFlag = flag.Int("cluster-steps", 120, "operations per cluster run")
)

// TestModelCluster drives a real GRM + LRM cluster through the seeded
// schedule and checks the server's books against the independent ledger
// after every operation. Replay a failure with:
// go test ./internal/modeltest -run TestModelCluster -cluster-seed <s>
func TestModelCluster(t *testing.T) {
	for _, seed := range []int64{*clusterSeedFlag, *clusterSeedFlag + 1, *clusterSeedFlag + 2} {
		rep, err := RunCluster(ClusterOptions{Seed: seed, Steps: *clusterStepsFlag})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Failure != nil {
			t.Fatalf("%s\ntrail:\n%s", rep.Failure.Error(), tail(rep.Trace, 10))
		}
		t.Logf("seed %d: %d steps clean", seed, rep.Steps)
	}
}

// TestModelClusterDeterministic: the same seed must produce a
// byte-identical trace — the replay contract for protocol-level failures.
func TestModelClusterDeterministic(t *testing.T) {
	a, err := RunCluster(ClusterOptions{Seed: *clusterSeedFlag, Steps: 80})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCluster(ClusterOptions{Seed: *clusterSeedFlag, Steps: 80})
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

// TestModelClusterCoversOps sanity-checks that the schedule actually
// exercises the interesting transitions: allocations, lease expiry via
// clock advance, and connection kills followed by reconnects.
func TestModelClusterCoversOps(t *testing.T) {
	rep, err := RunCluster(ClusterOptions{Seed: *clusterSeedFlag, Steps: 200})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failure != nil {
		t.Fatal(rep.Failure.Error())
	}
	joined := strings.Join(rep.Trace, "\n")
	for _, want := range []string{"alloc ", "kill ", "advance ", "report ", "restart "} {
		if !strings.Contains(joined, want) {
			t.Errorf("200-step schedule never exercised %q", strings.TrimSpace(want))
		}
	}
	if !strings.Contains(joined, "reaped=1") && !strings.Contains(joined, "reaped=2") {
		t.Errorf("no clock advance ever reaped a lease; expiry path untested")
	}
}

// TestModelClusterRestart pins the crash-recovery path: with the fixed
// seed the schedule kills and recovers the GRM mid-workload (with leases
// outstanding), the recovered server's books must match the ledger after
// every subsequent operation (RunCluster audits that), and the whole
// trace — restarts included — must replay byte-for-byte.
func TestModelClusterRestart(t *testing.T) {
	const steps = 200
	a, err := RunCluster(ClusterOptions{Seed: *clusterSeedFlag, Steps: steps})
	if err != nil {
		t.Fatal(err)
	}
	if a.Failure != nil {
		t.Fatalf("%s\ntrail:\n%s", a.Failure.Error(), tail(a.Trace, 10))
	}
	restarts, withLeases := 0, 0
	for _, line := range a.Trace {
		if !strings.Contains(line, "restart ") {
			continue
		}
		restarts++
		if !strings.Contains(line, "leases=0") {
			withLeases++
		}
	}
	if restarts == 0 {
		t.Fatalf("%d-step schedule never restarted the GRM", steps)
	}
	if withLeases == 0 {
		t.Errorf("no restart happened with leases outstanding; recovery of live leases untested")
	}

	b, err := RunCluster(ClusterOptions{Seed: *clusterSeedFlag, Steps: steps})
	if err != nil {
		t.Fatal(err)
	}
	if b.Failure != nil {
		t.Fatal(b.Failure.Error())
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			t.Fatalf("restart traces diverge at step %d:\n%s\n%s", i, a.Trace[i], b.Trace[i])
		}
	}
}

func tail(lines []string, n int) string {
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}
