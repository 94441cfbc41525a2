//go:build !race

package wirefmt

import "testing"

// TestAppendSparseFloat64sAllocs pins the decode into slices with room
// for the vector at nothing: an allocation reply that fits its box is
// decoded without a heap slice. The race detector's instrumentation
// allocates, so the race legs skip this file.
func TestAppendSparseFloat64sAllocs(t *testing.T) {
	enc := AppendSparseFloat64s(nil, []int{1, 2, 5, 6, 7}, []float64{1, 2, 3, 4, 5})
	idx, vals := make([]int, 0, 8), make([]float64, 0, 8)
	got := testing.AllocsPerRun(200, func() {
		d := NewDec(enc)
		i, v := d.AppendSparseFloat64s(idx[:0], vals[:0])
		if err := d.Done(); err != nil || len(i) != 5 || len(v) != 5 {
			t.Fatalf("decoded %v at %v: %v", v, i, err)
		}
	})
	t.Logf("a sparse vector decoded into room for it makes %v allocations", got)
	if got > 0 {
		t.Fatalf("a sparse vector decoded into room for it makes %v allocations, want none", got)
	}
}
