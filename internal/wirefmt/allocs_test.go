//go:build !race

package wirefmt

import (
	"math"
	"testing"
)

// TestAppendTakesAllocs pins the decode into slices with room for the
// vector at nothing, in either form: an allocation reply that fits its
// box is decoded without a heap slice. The race detector's
// instrumentation allocates, so the race legs skip this file.
func TestAppendTakesAllocs(t *testing.T) {
	for form, vals := range map[string][]float64{
		"full":    {math.Pi, math.E, math.Sqrt2, math.Ln2, math.Phi},
		"trimmed": {1, 2, 3, 4, 5},
	} {
		enc := mustTakes(t, []int{1, 2, 5, 6, 7}, vals)
		idx, got := make([]int, 0, 8), make([]float64, 0, 8)
		allocs := testing.AllocsPerRun(200, func() {
			d := NewDec(enc)
			i, v := d.AppendTakes(idx[:0], got[:0])
			if err := d.Done(); err != nil || len(i) != 5 || len(v) != 5 {
				t.Fatalf("%s: decoded %v at %v: %v", form, v, i, err)
			}
		})
		t.Logf("a %s vector decoded into room for it makes %v allocations", form, allocs)
		if allocs > 0 {
			t.Fatalf("a %s vector decoded into room for it makes %v allocations, want none", form, allocs)
		}
	}
}
