package modeltest

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

var updateTraces = flag.Bool("update-traces", false, "rewrite testdata/traces from this build instead of comparing")

// tracesDir holds full-text traces of fixed schedules. The determinism
// tests run one build twice, so they cannot see a change that moves a
// trace; these goldens pin the traces across commits. A change that
// moves one on purpose rewrites them with -update-traces in the same
// diff.
const tracesDir = "testdata/traces"

// checkGolden compares got with the golden file and names the first
// line that differs.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join(tracesDir, name)
	if *updateTraces {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (rewrite the goldens with -update-traces)", err)
	}
	want := string(raw)
	if got == want {
		return
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < max(len(wl), len(gl)); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			t.Fatalf("%s: first difference at line %d:\nwant: %s\ngot:  %s", path, i+1, w, g)
		}
	}
}

// TestClusterTraceGoldens pins RunCluster's traces at seeds 1-3 × 120
// steps (TestModelCluster's schedules) and seed 1 × 200 steps (the
// schedule of TestModelClusterRestart and TestModelClusterCoversOps).
func TestClusterTraceGoldens(t *testing.T) {
	for _, c := range []struct {
		seed  int64
		steps int
	}{{1, 120}, {2, 120}, {3, 120}, {1, 200}} {
		rep, err := RunCluster(ClusterOptions{Seed: c.seed, Steps: c.steps})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failure != nil {
			t.Fatal(rep.Failure.Error())
		}
		checkGolden(t, fmt.Sprintf("cluster-seed%d-%d.txt", c.seed, c.steps), strings.Join(rep.Trace, "\n")+"\n")
	}
}

// TestTreeTraceGoldens pins RunTree's traces at seeds 1-2 × 50 steps,
// TestModelTree's schedules.
func TestTreeTraceGoldens(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		rep, err := RunTree(TreeOptions{Seed: seed, Steps: 50})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failure != nil {
			t.Fatal(rep.Failure.Error())
		}
		checkGolden(t, fmt.Sprintf("tree-seed%d-50.txt", seed), strings.Join(rep.Trace, "\n")+"\n")
	}
}

// TestRecordTraceGolden pins the bundle RecordCluster writes for seed 1
// at cmd/scenario record's default of 60 steps, file by file.
func TestRecordTraceGolden(t *testing.T) {
	bundle, rep, err := RecordCluster(ClusterOptions{Seed: 1, Steps: 60}, time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failure != nil {
		t.Fatal(rep.Failure.Error())
	}
	dir := t.TempDir()
	if err := scenario.WriteBundle(dir, bundle); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{scenario.MetaFile, scenario.EventsFile, scenario.ExpectedFile} {
		raw, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, filepath.Join("record-seed1", f), string(raw))
	}
}

// TestRunFailureTexts pins what the cluster and tree runners' one
// failure type prints: the JSON `sharingcheck -out` writes and both
// Error texts, as the two separate types printed them.
func TestRunFailureTexts(t *testing.T) {
	raw, err := json.Marshal(&RunFailure{Seed: 3, Step: 7, Op: "alloc", Msg: "m", run: "cluster"})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"seed":3,"step":7,"op":"alloc","msg":"m"}`; string(raw) != want {
		t.Errorf("JSON %s, want %s", raw, want)
	}
	for run, want := range map[string]string{
		"cluster": "modeltest: cluster step 7 (alloc) violated an invariant (replay: -cluster-seed 3): m",
		"tree":    "modeltest: tree step 7 (alloc) violated an invariant (replay: -tree-seed 3): m",
	} {
		if got := (&RunFailure{Seed: 3, Step: 7, Op: "alloc", Msg: "m", run: run}).Error(); got != want {
			t.Errorf("%s failure reads %q, want %q", run, got, want)
		}
	}
}
