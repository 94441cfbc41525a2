package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunResolvesEveryPattern holds run to the patterns it is given: a
// trailing slash names the directory, and a pattern that matches no
// package is a load error (exit 2) that names it, never a clean run over
// nothing.
func TestRunResolvesEveryPattern(t *testing.T) {
	for _, pat := range []string{"./internal/num", "./internal/num/"} {
		var stdout, stderr bytes.Buffer
		if got := run(&stdout, &stderr, []string{pat}, true, true, false); got != 0 {
			t.Fatalf("run(%q) = %d, want 0; stderr:\n%s", pat, got, stderr.String())
		}
		if !strings.Contains(stderr.String(), "sharingvet: repro/internal/num\n") {
			t.Errorf("run(%q) did not analyze repro/internal/num; stderr:\n%s", pat, stderr.String())
		}
		if strings.TrimSpace(stdout.String()) != "[]" {
			t.Errorf("run(%q) -json = %q, want []", pat, stdout.String())
		}
	}
	// A directory with no Go files of its own is no package either.
	for _, pat := range []string{"./does/not/exist", "./internal"} {
		var stdout, stderr bytes.Buffer
		if got := run(&stdout, &stderr, []string{"./internal/num", pat}, false, false, false); got != 2 {
			t.Errorf("run(%q) = %d, want 2", pat, got)
		}
		if want := "pattern " + pat + " matches no package"; !strings.Contains(stderr.String(), want) {
			t.Errorf("run(%q) stderr = %q, want it to say %q", pat, stderr.String(), want)
		}
	}
}
