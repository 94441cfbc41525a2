package core_test

import (
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/planners"
)

func newTestLedger(t *testing.T) *planners.Ledger {
	t.Helper()
	// Principal 1 shares 50% with 0.
	al, err := core.NewAllocator(core.Sparse([][]float64{{0, 0}, {0.5, 0}}), nil, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := planners.NewLedger(al, []float64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLedgerAcquireRelease(t *testing.T) {
	l := newTestLedger(t)
	lease, err := l.Acquire(0, 15)
	if err != nil {
		t.Fatal(err)
	}
	if l.Outstanding() != 1 {
		t.Errorf("Outstanding = %d", l.Outstanding())
	}
	var total float64
	for _, take := range lease.Takes {
		total += take
	}
	almost(t, total, 15, 1e-6, "lease takes")
	avail := l.Available()
	almost(t, avail[0]+avail[1], 15, 1e-6, "remaining availability")

	if err := l.Release(lease.ID); err != nil {
		t.Fatal(err)
	}
	avail = l.Available()
	almost(t, avail[0], 10, 1e-6, "restored availability 0")
	almost(t, avail[1], 20, 1e-6, "restored availability 1")
	if err := l.Release(lease.ID); err == nil {
		t.Error("double release accepted")
	}
}

func TestLedgerInsufficient(t *testing.T) {
	l := newTestLedger(t)
	// C_0 = 10 + 10 = 20.
	if _, err := l.Acquire(0, 25); !errors.Is(err, core.ErrInsufficient) {
		t.Errorf("want core.ErrInsufficient, got %v", err)
	}
	// Drain and verify the pool shrinks for the next caller: after taking
	// 18, at most 12 remain with principal 1, of which 0 may use half.
	if _, err := l.Acquire(0, 18); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Acquire(0, 7); !errors.Is(err, core.ErrInsufficient) {
		t.Errorf("second acquire should fail (capacity is now 6), got %v", err)
	}
}

// TestLedgerReleaseCreditsWhatAcquireDebited: Proportional splits a
// request by agreement, blind to availability, so it can plan a take larger
// than what a source has left. Acquire debits only what is there, and
// Release must credit back exactly that, not the whole take: otherwise a
// release hands out capacity another live lease still holds.
func TestLedgerReleaseCreditsWhatAcquireDebited(t *testing.T) {
	pr, err := planners.NewProportional(core.Sparse([][]float64{{0, 0.5}, {0.5, 0}}), nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := planners.NewLedger(pr, []float64{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Acquire(1, 8); err != nil {
		t.Fatal(err)
	}
	if got := l.Available(); got[0] != 10 || got[1] != 2 {
		t.Fatalf("after principal 1 leases 8: availability %v, want [10 2]", got)
	}
	lease, err := l.Acquire(0, 20) // takes 10 from each; principal 1 has 2 left
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Available(); got[0] != 0 || got[1] != 0 {
		t.Fatalf("after principal 0 leases 20: availability %v, want [0 0]", got)
	}
	if err := l.Release(lease.ID); err != nil {
		t.Fatal(err)
	}
	if got := l.Available(); got[0] != 10 || got[1] != 2 {
		t.Errorf("after principal 0 releases, with principal 1's lease of 8 live: availability %v, want [10 2]", got)
	}
}

func TestLedgerSetCapacity(t *testing.T) {
	l := newTestLedger(t)
	if err := l.SetCapacity(1, 40); err != nil {
		t.Fatal(err)
	}
	caps := l.Capacities()
	almost(t, caps[0], 30, 1e-6, "C_0 after capacity raise")
	if err := l.SetCapacity(1, -1); err == nil {
		t.Error("negative capacity accepted")
	}
	if err := l.SetCapacity(9, 1); err == nil {
		t.Error("unknown principal accepted")
	}
}

func TestLedgerCapacityShrinkWithLeases(t *testing.T) {
	l := newTestLedger(t)
	lease, err := l.Acquire(0, 15) // takes 10 from 0 and 5 from 1
	if err != nil {
		t.Fatal(err)
	}
	// Principal 1's machine shrinks to 5 while 5 are leased out.
	if err := l.SetCapacity(1, 5); err != nil {
		t.Fatal(err)
	}
	avail := l.Available()
	if avail[1] < 0 {
		t.Errorf("availability went negative: %v", avail)
	}
	// Releasing must not exceed the new capacity.
	if err := l.Release(lease.ID); err != nil {
		t.Fatal(err)
	}
	avail = l.Available()
	if avail[1] > 5+1e-9 {
		t.Errorf("availability %g exceeds shrunk capacity 5", avail[1])
	}
}

func TestLedgerConcurrentAcquireRelease(t *testing.T) {
	n := 8
	s := make([][]float64, n)
	v := make([]float64, n)
	for i := range s {
		s[i] = make([]float64, n)
		v[i] = 100
		for j := range s[i] {
			if i != j {
				s[i][j] = 0.5 / float64(n-1)
			}
		}
	}
	al, err := core.NewAllocator(core.Sparse(s), nil, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := planners.NewLedger(al, v)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				lease, err := l.Acquire(p, 10)
				if err != nil {
					continue // pool temporarily drained; fine
				}
				if err := l.Release(lease.ID); err != nil {
					t.Errorf("release: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if l.Outstanding() != 0 {
		t.Errorf("leaked %d leases", l.Outstanding())
	}
	avail := l.Available()
	for i, a := range avail {
		if math.Abs(a-100) > 1e-6 {
			t.Errorf("availability[%d] = %g, want 100 restored", i, a)
		}
	}
}

func TestLedgerOutstandingFor(t *testing.T) {
	l := newTestLedger(t)
	a, err := l.Acquire(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Acquire(1, 4); err != nil {
		t.Fatal(err)
	}
	almost(t, l.OutstandingFor(0), 3, 1e-12, "outstanding for 0")
	almost(t, l.OutstandingFor(1), 4, 1e-12, "outstanding for 1")
	if err := l.Release(a.ID); err != nil {
		t.Fatal(err)
	}
	almost(t, l.OutstandingFor(0), 0, 1e-12, "after release")
}

func TestNewLedgerValidation(t *testing.T) {
	al, err := core.NewAllocator(core.Sparse([][]float64{{0, 0}, {0, 0}}), nil, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := planners.NewLedger(al, []float64{-1, 2}); err == nil {
		t.Error("negative capacity accepted")
	}
}
