package core

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// TestPlanConcurrentDeterministic hammers one shared Allocator from many
// goroutines and checks every result is bit-identical to a serial solve of
// the same request: the recycled plan workspaces — each plan's model, its
// bookkeeping and the LP scratch — must neither race (run under -race) nor
// leak state between requests.
func TestPlanConcurrentDeterministic(t *testing.T) {
	s := [][]float64{
		{0, 0.5, 0.2, 0},
		{0.3, 0, 0.4, 0.1},
		{0, 0.6, 0, 0.2},
		{0.25, 0, 0.5, 0},
	}
	al, err := NewAllocator(sparse(s), nil, Config{})
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

// TestConcurrentPlansAcrossValueChurn races PlanPairs on an allocator (run
// under -race in `make race` and `make check`) before and after each of two
// value-only writes patched in place — a share halved, an absolute
// agreement raised — so a workspace that planned before a write plans
// again after it. Every plan must equal, bit for bit, the same plan on a
// fresh NewAllocator over the allocator's agreements as they stand.
func TestConcurrentPlansAcrossValueChurn(t *testing.T) {
	s, a, v := sparseBlockScenario(32, 5)
	for _, cfg := range []Config{{}, {ComponentLP: true}} {
		al, err := NewAllocator(s, a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		writes := []func() error{
			func() error { return nil },
			func() error { return al.PatchShare(0, 1, al.Share(0, 1), al.Share(0, 1)/2) },
			func() error { return al.PatchAgreement(7, 0, al.Agreement(7, 0), al.Agreement(7, 0)+2) },
		}
		for k, write := range writes {
			if err := write(); err != nil {
				t.Fatal(err)
			}
			type pairs struct {
				sources []int
				takes   []float64
				theta   float64
			}
			fresh := rebuilt(t, al)
			var want []pairs
			for r := range v {
				sources, takes, theta, err := fresh.PlanPairs(nil, nil, v, r, 2.5)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, pairs{sources, takes, theta})
			}
			var wg sync.WaitGroup
			for g := 0; g < 6; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					var sources []int
					var takes []float64
					for round := 0; round < 20; round++ {
						for r := range v {
							r := (r + g) % len(v)
							var theta float64
							var err error
							if sources, takes, theta, err = al.PlanPairs(sources[:0], takes[:0], v, r, 2.5); err != nil {
								t.Error(err)
								return
							}
							w := want[r]
							if !slices.Equal(sources, w.sources) || !sameBits(takes, w.takes) || !sameBits([]float64{theta}, []float64{w.theta}) {
								t.Errorf("%+v, write %d: requester %d plans %v %v θ=%v, a fresh build %v %v θ=%v",
									cfg, k, r, sources, takes, theta, w.sources, w.takes, w.theta)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
		}
	}
}

// TestConcurrentPlansOverflowFreeList races 4×GOMAXPROCS goroutines
// planning at once on one allocator (run under -race in `make race` and
// `make check`), more than its free list of workspaces holds. The test
// keeps every listed workspace out while they plan, so the first plans find
// the list empty and make fresh workspaces, and puts them back after, when
// the plans have refilled the list and at least one is dropped. Every plan
// must equal, bit for bit, the same plan made before on its own.
func TestConcurrentPlansOverflowFreeList(t *testing.T) {
	s, a, v := sparseBlockScenario(32, 5)
	al, err := NewAllocator(s, a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	type pairs struct {
		sources []int
		takes   []float64
		theta   float64
	}
	want := make([]pairs, len(v))
	for r := range v {
		sources, takes, theta, err := al.PlanPairs(nil, nil, v, r, 2.5)
		if err != nil {
			t.Fatal(err)
		}
		want[r] = pairs{sources, takes, theta}
	}
	held := make([]*planWS, cap(al.free))
	for i := range held {
		held[i] = al.getWS()
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4*runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			var sources []int
			var takes []float64
			for round := 0; round < 5; round++ {
				for r := range v {
					r := (r + g) % len(v)
					var theta float64
					var err error
					if sources, takes, theta, err = al.PlanPairs(sources[:0], takes[:0], v, r, 2.5); err != nil {
						t.Error(err)
						return
					}
					if w := want[r]; !slices.Equal(sources, w.sources) || !sameBits(takes, w.takes) || !sameBits([]float64{theta}, []float64{w.theta}) {
						t.Errorf("goroutine %d: requester %d plans %v %v θ=%v, alone %v %v θ=%v",
							g, r, sources, takes, theta, w.sources, w.takes, w.theta)
						return
					}
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for _, ws := range held {
		al.putWS(ws)
	}
	if len(al.free) != cap(al.free) {
		t.Errorf("the free list holds %d workspaces after the burst, want its capacity %d", len(al.free), cap(al.free))
	}
}
