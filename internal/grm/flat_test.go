//go:build !race

package grm

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/core"
)

// TestRegisterCostFlat: a register costs the same whatever the population
// it joins, so set-up, recovery and LRM reconnects are linear in it. The
// per-register time of the fastest of five batches of 1000 new names is
// compared in populations of 1 024 and 32 768; a name search that walks
// the population makes the second about 32 times the first. The race
// detector slows code unevenly, so the race legs skip this file; -short
// skips the test.
func TestRegisterCostFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("times 10 000 registrations in populations of up to 32 768")
	}
	const batch = 1000
	perRegister := func(n int) time.Duration {
		s := NewServer(core.Config{}, nil)
		defer s.Close()
		for _, name := range nameList("p", n) {
			registerAs(t, s, name, 1)
		}
		best := time.Duration(math.MaxInt64)
		for run := 0; run < 5; run++ {
			names := nameList(fmt.Sprintf("r%d-", run), batch)
			start := time.Now()
			for _, name := range names {
				registerAs(t, s, name, 1)
			}
			best = min(best, time.Since(start))
		}
		return best / batch
	}
	small, large := perRegister(1024), perRegister(32768)
	t.Logf("a register costs %v among 1 024 principals, %v among 32 768", small, large)
	if large > 4*small {
		t.Errorf("a register costs %v among 32 768 principals, %.1f× the %v among 1 024: want at most 4×",
			large, float64(large)/float64(small), small)
	}
}
