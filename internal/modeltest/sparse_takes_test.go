package modeltest

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/wirefmt"
)

// TestSparseTakesWireProperty runs the wire's run-length form over the
// takes the generated taxonomy actually produces — dense on complete
// graphs and rings, a few scattered sources on sparse and hierarchical
// ones — and once more with the sources renamed the way a shard router
// renames them (id·stride + shard), which turns every run into isolated
// entries with two-byte gaps. Every vector must round-trip, never cost
// more than three bytes over the dense encoding, and cost at most eleven
// bytes an entry plus the count when its entries are isolated (gaps
// below 2^14, as here; a wider gap adds a byte per factor of 128).
func TestSparseTakesWireProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(*seedFlag))
	cases := 150
	if testing.Short() {
		cases = 40
	}
	vectors := 0
	for c := 0; c < cases; c++ {
		g := Generate(rng)
		al, err := core.NewAllocator(g.S, g.A, core.Config{Level: g.Level})
		if err != nil {
			continue // the closure budget refused the graph
		}
		caps := al.Capacities(g.V)
		for r := 0; r < g.N; r++ {
			for _, share := range []float64{0.25, 1} {
				amount := grid(caps[r] * share)
				if amount <= 0 {
					continue
				}
				plan, err := al.Plan(g.V, r, amount)
				if err != nil {
					continue
				}
				sources, takes := store.SparseTakes(nil, plan.Take)
				if got := store.DenseTakes(sources, takes, g.N); !reflect.DeepEqual(got, plan.Take) {
					t.Fatalf("case %d: pairs %v at %v expand to %v, want %v", c, takes, sources, got, plan.Take)
				}
				dense := len(wirefmt.AppendFloat64s(nil, plan.Take))
				checkSparseWire(t, sources, takes, dense)
				vectors++

				const stride, shard = 1000, 5
				renamed := make([]int, len(sources))
				for k, p := range sources {
					renamed[k] = p*stride + shard
				}
				checkSparseWire(t, renamed, takes, 8*(renamed[len(renamed)-1]+1))
			}
		}
	}
	if vectors < cases {
		t.Fatalf("only %d takes vectors from %d graphs: the property ran on too little", vectors, cases)
	}
	t.Logf("%d takes vectors, each once as planned and once with renamed sources", vectors)
}

// checkSparseWire round-trips one pair list and checks its encoded size
// against the dense encoding's and, when no two sources are neighbours,
// against the per-entry bound.
func checkSparseWire(t *testing.T, sources []int, takes []float64, denseBytes int) {
	t.Helper()
	enc := wirefmt.AppendSparseFloat64s(nil, sources, takes)
	d := wirefmt.NewDec(enc)
	idx, vals := d.SparseFloat64s()
	if err := d.Done(); err != nil {
		t.Fatalf("%v at %v: %v", takes, sources, err)
	}
	if !reflect.DeepEqual(idx, sources) || !reflect.DeepEqual(vals, takes) {
		t.Fatalf("%v at %v decodes to %v at %v", takes, sources, vals, idx)
	}
	if len(enc) > denseBytes+3 {
		t.Fatalf("%v at %v: %d bytes, dense is %d", takes, sources, len(enc), denseBytes)
	}
	for k := 1; k < len(sources); k++ {
		if sources[k] == sources[k-1]+1 {
			return
		}
	}
	if len(enc) > 11*len(sources)+1 {
		t.Fatalf("%v at isolated %v: %d bytes for %d entries", takes, sources, len(enc), len(sources))
	}
}
