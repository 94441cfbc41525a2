package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/agreement"
)

// embeddedComponent builds a population of n principals in which nine
// fixed ids, all below 64, form one agreement component — a ring of
// relative shares with two chords and two absolute agreements — and
// everyone else sits in chains of eight. The component's agreements and
// availabilities do not depend on n.
func embeddedComponent(t testing.TB, n int) (*Allocator, []float64, []int) {
	t.Helper()
	member := []int{3, 7, 12, 20, 21, 33, 40, 55, 63}
	in := map[int]bool{}
	for _, m := range member {
		in[m] = true
	}
	sb, ab := agreement.NewSparseBuilder(n), agreement.NewSparseBuilder(n)
	for k, m := range member {
		sb.Add(m, member[(k+1)%len(member)], 0.15+0.05*float64(k%4))
	}
	sb.Add(member[0], member[4], 0.2)
	sb.Add(member[6], member[2], 0.1)
	ab.Add(member[8], member[1], 2.5)
	ab.Add(member[3], member[5], 1.25)
	var rest []int
	for i := 0; i < n; i++ {
		if !in[i] {
			rest = append(rest, i)
		}
	}
	for k := 0; k+1 < len(rest); k++ {
		if k%8 != 7 {
			sb.Add(rest[k], rest[k+1], 0.3)
		}
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = 20.1 + float64(i%13)/7
	}
	al, err := NewAllocatorSparse(sb.Build(), ab.Build(), Config{ComponentLP: true})
	if err != nil {
		t.Fatal(err)
	}
	return al, v, member
}

// TestPlanPairsIndependentOfPopulation plans the same requests for the
// same nine-principal component embedded in populations of 64 and 8 192:
// the pairs and θ must agree bit for bit, and both must equal Plan's dense
// answer. (What a plan allocates, which must not depend on the population
// either, is pinned in allocs_test.go.)
func TestPlanPairsIndependentOfPopulation(t *testing.T) {
	type outcome struct {
		sources []int
		takes   []float64
		theta   float64
	}
	var small []outcome
	for _, n := range []int{64, 8192} {
		al, v, member := embeddedComponent(t, n)
		var got []outcome
		for k, r := range member {
			for _, amount := range []float64{0, 3.7, 11.3 + float64(k), 22} {
				sources, takes, theta, err := al.PlanPairs(nil, nil, v, r, amount)
				if err != nil {
					t.Fatalf("n=%d requester %d amount %v: %v", n, r, amount, err)
				}
				for _, p := range sources {
					if p >= 64 {
						t.Fatalf("n=%d requester %d: take from %d, outside the component", n, r, p)
					}
				}
				plan, err := al.Plan(v, r, amount)
				if err != nil {
					t.Fatal(err)
				}
				checkPairsAreDense(t, sources, takes, theta, plan)
				got = append(got, outcome{sources, takes, theta})
			}
		}
		if small == nil {
			small = got
			continue
		}
		for c := range got {
			if !slices.Equal(got[c].sources, small[c].sources) || !sameBits(got[c].takes, small[c].takes) ||
				math.Float64bits(got[c].theta) != math.Float64bits(small[c].theta) {
				t.Fatalf("request %d: population 64 plans %v %v θ=%v, population %d plans %v %v θ=%v",
					c, small[c].sources, small[c].takes, small[c].theta, n, got[c].sources, got[c].takes, got[c].theta)
			}
		}
	}
}

// checkPairsAreDense fails unless the pairs are exactly the non-zero
// entries of the dense plan's Take, ascending, with the same θ.
func checkPairsAreDense(t *testing.T, sources []int, takes []float64, theta float64, plan *Allocation) {
	t.Helper()
	k := 0
	for i, take := range plan.Take {
		if take == 0 {
			continue
		}
		if k >= len(sources) || sources[k] != i || math.Float64bits(takes[k]) != math.Float64bits(take) {
			t.Fatalf("pairs %v %v are not the non-zero entries of Take %v", sources, takes, plan.Take)
		}
		k++
	}
	if k != len(sources) || len(sources) != len(takes) {
		t.Fatalf("pairs %v %v are not the non-zero entries of Take %v", sources, takes, plan.Take)
	}
	if math.Float64bits(theta) != math.Float64bits(plan.Theta) {
		t.Fatalf("pair θ %v, dense θ %v", theta, plan.Theta)
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPlanPairsKeepsSlicesOnError checks the append contract's failure
// side: a refused request hands the caller's slices back untouched.
func TestPlanPairsKeepsSlicesOnError(t *testing.T) {
	al, v, member := embeddedComponent(t, 64)
	sources, takes := []int{99}, []float64{1.5}
	gotS, gotT, _, err := al.PlanPairs(sources, takes, v, member[0], 1e9)
	if err == nil {
		t.Fatal("oversized request planned")
	}
	if !slices.Equal(gotS, sources) || !sameBits(gotT, takes) {
		t.Fatalf("failed plan returned %v %v, want the slices as given", gotS, gotT)
	}
}
