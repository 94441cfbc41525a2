package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/transitive"
)

// TestPlanConcurrentDeterministic hammers one shared Allocator from many
// goroutines and checks every result is bit-identical to a serial solve of
// the same request: the skeleton cache, model clones, and pooled LP
// workspaces must neither race (run under -race) nor leak state between
// requests.
func TestPlanConcurrentDeterministic(t *testing.T) {
	s := [][]float64{
		{0, 0.5, 0.2, 0},
		{0.3, 0, 0.4, 0.1},
		{0, 0.6, 0, 0.2},
		{0.25, 0, 0.5, 0},
	}
	al, err := NewAllocator(s, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}

	type req struct {
		v         []float64
		requester int
		amount    float64
	}
	rng := rand.New(rand.NewSource(42))
	reqs := make([]req, 64)
	want := make([]*Allocation, len(reqs))
	for i := range reqs {
		v := make([]float64, 4)
		for j := range v {
			v[j] = 1 + 9*rng.Float64()
		}
		r := rng.Intn(4)
		caps := al.Capacities(v)
		reqs[i] = req{v: v, requester: r, amount: caps[r] * (0.1 + 0.7*rng.Float64())}
		want[i], err = al.Plan(v, r, reqs[i].amount)
		if err != nil {
			t.Fatalf("serial Plan %d: %v", i, err)
		}
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				for i, rq := range reqs {
					got, err := al.Plan(rq.v, rq.requester, rq.amount)
					if err != nil {
						errs <- err
						return
					}
					for j := range got.Take {
						if got.Take[j] != want[i].Take[j] || got.NewV[j] != want[i].NewV[j] {
							t.Errorf("goroutine %d req %d: take[%d]=%v want %v",
								g, i, j, got.Take[j], want[i].Take[j])
							return
						}
					}
					if got.Theta != want[i].Theta {
						t.Errorf("goroutine %d req %d: theta=%v want %v", g, i, got.Theta, want[i].Theta)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCapsIntoMatchesDense pins the sparse-column-index capacity sum to
// transitive.Capacities bit-for-bit, with and without absolute agreements.
func TestCapsIntoMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(10)
		s := make([][]float64, n)
		var a [][]float64
		if trial%2 == 1 {
			a = make([][]float64, n)
		}
		for i := range s {
			s[i] = make([]float64, n)
			if a != nil {
				a[i] = make([]float64, n)
			}
			for j := range s[i] {
				if i == j {
					continue
				}
				if rng.Float64() < 0.4 {
					s[i][j] = rng.Float64()
				}
				if a != nil && rng.Float64() < 0.3 {
					a[i][j] = rng.Float64() * 2
				}
			}
		}
		al, err := NewAllocator(s, a, Config{Level: 2})
		if err != nil {
			t.Fatal(err)
		}
		v := make([]float64, n)
		for i := range v {
			v[i] = 10 * rng.Float64()
		}
		want := transitive.Capacities(v, al.FlowCoefficients(), al.denseA())
		got := al.Capacities(v)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: Capacities[%d]=%v, dense=%v", trial, i, got[i], want[i])
			}
			if one := al.Capacity(v, i); one != want[i] {
				t.Fatalf("trial %d: Capacity(%d)=%v, dense=%v", trial, i, one, want[i])
			}
		}
	}
}

// normalizeDense runs normalizeTakes over an allocation whose every
// principal is a variable.
func normalizeDense(a *Allocation, v []float64, amount float64, maxTake []float64) float64 {
	vars := make([]int32, len(a.Take))
	for i := range vars {
		vars[i] = int32(i)
	}
	return normalizeTakes(a.Take, a.NewV, vars, v, amount, maxTake, len(vars))
}

// TestNormalizeTakesRespectsCaps checks that round-off repair never pushes
// a take beyond its per-source agreement cap: the residual spills over to
// the next-largest sources with headroom instead.
func TestNormalizeTakesRespectsCaps(t *testing.T) {
	v := []float64{10, 10, 10}
	a := &Allocation{
		Take: []float64{4.0, 2.0, 1.0},
		NewV: []float64{6.0, 8.0, 9.0},
	}
	maxTake := []float64{4.05, 2.2, 3.0}
	// Sum is 7, amount is 7.5: the largest take (index 0) can only absorb
	// 0.05 before hitting its cap; the rest must spill to index 1 (0.2)
	// and then index 2 (0.25).
	if resid := normalizeDense(a, v, 7.5, maxTake); resid != 0 {
		t.Fatalf("repairable case reported residual %v", resid)
	}
	var sum float64
	for i := range a.Take {
		sum += a.Take[i]
		if a.Take[i] > maxTake[i]+1e-12 {
			t.Fatalf("take[%d]=%v exceeds cap %v", i, a.Take[i], maxTake[i])
		}
		if a.NewV[i] != v[i]-a.Take[i] {
			t.Fatalf("NewV[%d]=%v inconsistent with take %v", i, a.NewV[i], a.Take[i])
		}
	}
	if d := sum - 7.5; d > 1e-12 || d < -1e-12 {
		t.Fatalf("takes sum to %v, want 7.5", sum)
	}

	// Negative residual: takes shrink but never below zero.
	b := &Allocation{Take: []float64{3.0, 0.5}, NewV: []float64{7.0, 9.5}}
	if resid := normalizeDense(b, v[:2], 3.2, []float64{5, 5}); resid != 0 {
		t.Fatalf("negative residual not repaired: %v left, takes %v", resid, b.Take)
	}
	if b.Take[0]+b.Take[1] != 3.2 {
		t.Fatalf("negative residual not repaired: takes %v", b.Take)
	}
}

// TestNormalizeTakesAllAtCapReportsResidual is the regression test for the
// all-sources-at-cap edge case: when every take is pinned at its agreement
// cap and the sum still misses the amount, the repair used to terminate
// silently, leaving an allocation that under-delivers without any signal.
// normalizeTakes must report the unabsorbed residual (and allocationFrom
// turns a non-negligible one into ErrInfeasible). The state is only
// reachable end-to-end through LP degeneracies — Plan's up-front capacity
// guard rejects plainly oversized requests — hence this white-box test.
func TestNormalizeTakesAllAtCapReportsResidual(t *testing.T) {
	v := []float64{10, 10}
	c := &Allocation{Take: []float64{2.0, 2.0}, NewV: []float64{8.0, 8.0}}
	resid := normalizeDense(c, v, 5.0, []float64{2.0, 2.0})
	if c.Take[0] != 2.0 || c.Take[1] != 2.0 {
		t.Fatalf("capped takes mutated: %v", c.Take)
	}
	if resid != 1.0 {
		t.Fatalf("unabsorbed residual = %v, want 1.0", resid)
	}
	// A repairable case reports zero even when one source caps out.
	d := &Allocation{Take: []float64{2.0, 1.0}, NewV: []float64{8.0, 9.0}}
	if resid := normalizeDense(d, v, 4.0, []float64{2.0, 5.0}); resid != 0 {
		t.Fatalf("repairable case reported residual %v", resid)
	}
}
