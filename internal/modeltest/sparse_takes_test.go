package modeltest

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/wirefmt"
)

// TestSparseTakesWireProperty runs the wire's take-vector spelling over
// the takes the generated taxonomy actually produces — dense on complete
// graphs and rings, a few scattered sources on sparse and hierarchical
// ones — and once more with the sources renamed the way a shard router
// renames them (id·stride + shard), which turns every run into isolated
// entries with two-byte gaps. Every vector must round-trip bit for bit
// and never cost more than protocol version 2's runs of 8-byte floats —
// below 64 entries not even the byte the trimmed-form flag can add to the
// count. Those runs in turn never cost more than three bytes over the
// dense encoding, and at most eleven bytes an entry plus the count when
// the entries are isolated (gaps below 2^14, as here; a wider gap adds a
// byte per factor of 128).
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
// against version 2's, and version 2's against the dense encoding's and,
// when no two sources are neighbours, the per-entry bound.
func checkSparseWire(t *testing.T, sources []int, takes []float64, denseBytes int) {
	t.Helper()
	enc, err := wirefmt.AppendTakes(nil, sources, takes)
	if err != nil {
		t.Fatalf("%v at %v: %v", takes, sources, err)
	}
	d := wirefmt.NewDec(enc)
	idx, vals := d.Takes()
	if err := d.Done(); err != nil {
		t.Fatalf("%v at %v: %v", takes, sources, err)
	}
	if !reflect.DeepEqual(idx, sources) || len(vals) != len(takes) {
		t.Fatalf("%v at %v decodes to %v at %v", takes, sources, vals, idx)
	}
	for k := range vals {
		if math.Float64bits(vals[k]) != math.Float64bits(takes[k]) {
			t.Fatalf("%v at %v decodes to %v: entry %d's bits moved", takes, sources, vals, k)
		}
	}
	v2 := v2Size(sources)
	if slack := len(enc) - v2; slack > 1 || (len(sources) < 64 && slack > 0) {
		t.Fatalf("%v at %v: %d bytes, version 2 took %d", takes, sources, len(enc), v2)
	}
	if v2 > denseBytes+3 {
		t.Fatalf("%v at %v: %d bytes in version 2, dense is %d", takes, sources, v2, denseBytes)
	}
	for k := 1; k < len(sources); k++ {
		if sources[k] == sources[k-1]+1 {
			return
		}
	}
	if v2 > 11*len(sources)+1 {
		t.Fatalf("%v at isolated %v: %d bytes in version 2 for %d entries", takes, sources, v2, len(sources))
	}
}

// v2Size is how long protocol version 2 spelled a vector at these
// indices: a count, a gap and a length per run, and 8 bytes a value.
func v2Size(idx []int) int {
	size := uvarintLen(len(idx)) + 8*len(idx)
	next := 0
	for k := 0; k < len(idx); {
		end := k + 1
		for end < len(idx) && idx[end] == idx[end-1]+1 {
			end++
		}
		size += uvarintLen(idx[k]-next) + uvarintLen(end-k)
		next, k = idx[end-1]+1, end
	}
	return size
}

func uvarintLen(v int) int { return len(wirefmt.AppendUvarint(nil, uint64(v))) }
