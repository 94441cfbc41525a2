//go:build !race

package core

import "testing"

// TestPlanPairsAllocatesNothing pins the served plan's steady state: with
// capacity in the caller's slices a PlanPairs call allocates nothing, and
// the same component costs the same zero bytes a plan in a population of 64
// and in one of 8 192. The race detector's instrumentation allocates, so
// the race legs skip this file.
func TestPlanPairsAllocatesNothing(t *testing.T) {
	for _, n := range []int{64, 8192} {
		al, v, member := embeddedComponent(t, n)
		sources, takes := make([]int, 0, 16), make([]float64, 0, 16)
		r := 0
		plan := func() {
			var err error
			if sources, takes, _, err = al.PlanPairs(sources[:0], takes[:0], v, member[r%len(member)], 19.3); err != nil {
				t.Fatal(err)
			}
			r++
		}
		for range member {
			plan() // every requester's skeleton and model clone exists
		}
		if got := testing.AllocsPerRun(100, plan); got != 0 {
			t.Errorf("n=%d: a steady-state PlanPairs makes %v allocations, want 0", n, got)
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan()
			}
		})
		if got := res.AllocedBytesPerOp(); got != 0 {
			t.Errorf("n=%d: a steady-state PlanPairs allocates %d bytes, want 0", n, got)
		}
	}
}
