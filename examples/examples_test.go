// Package examples_test pins what every program under examples/ prints:
// each is built, run, and its standard output compared byte for byte with
// testdata/<name>.golden. The cluster example's parent GRM listens on a
// port the kernel picks, so the digits of 127.0.0.1:<port> are masked.
//
// After a deliberate change to an example's output, rewrite the goldens
// with
//
//	go test ./examples -update
package examples_test

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// loopbackPort matches a listener's kernel-picked port.
var loopbackPort = regexp.MustCompile(`127\.0\.0\.1:[0-9]+`)

func TestExamplesMatchGolden(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go command to build the examples with: %v", err)
	}
	mains, err := filepath.Glob("*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no examples found (%v)", err)
	}
	bin := t.TempDir()
	for _, m := range mains {
		name := filepath.Dir(m)
		t.Run(name, func(t *testing.T) {
			exe := filepath.Join(bin, name)
			if out, err := exec.Command(goTool, "build", "-o", exe, "./"+name).CombinedOutput(); err != nil {
				t.Fatalf("build: %v\n%s", err, out)
			}
			var stdout, stderr bytes.Buffer
			run := exec.Command(exe)
			run.Stdout, run.Stderr = &stdout, &stderr
			if err := run.Run(); err != nil {
				t.Fatalf("run: %v\n%s", err, stderr.Bytes())
			}
			got := loopbackPort.ReplaceAll(stdout.Bytes(), []byte("127.0.0.1:PORT"))
			golden := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (write it with go test ./examples -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output differs from %s\ngot:\n%s\nwant:\n%s", golden, got, want)
			}
		})
	}
}
