package grm

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// TestAllocOptimisticConflictRetries forces the optimistic-commit path to
// observe an epoch move while the LP solved outside the lock: the stale
// plan must be discarded, the solve retried against fresh state, and the
// committed allocation must reflect the availability mutated mid-solve.
func TestAllocOptimisticConflictRetries(t *testing.T) {
	s := NewServer(core.Config{}, nil)
	reg := func(name string, capacity float64) int {
		resp := s.dispatch(&Request{Register: &RegisterRequest{Name: name, Capacity: capacity}})
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
		return resp.Register.Principal
	}
	a := reg("A", 100)
	b := reg("B", 80)
	if resp := s.dispatch(&Request{Share: &ShareRequest{From: b, To: a, Fraction: 0.5}}); resp.Err != "" {
		t.Fatal(resp.Err)
	}

	// On the first unlocked solve, shrink B's availability so the epoch
	// moves and the snapshot the solve used goes stale.
	var fired atomic.Int32
	s.mu.Lock()
	s.testHookUnlocked = func() {
		if fired.Add(1) == 1 {
			if resp := s.dispatch(&Request{Report: &ReportRequest{Principal: b, Available: 10}}); resp.Err != "" {
				t.Error(resp.Err)
			}
		}
	}
	s.mu.Unlock()

	resp := s.dispatch(&Request{Alloc: &AllocRequest{Principal: a, Amount: 104}})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	if got := s.PlanConflicts(); got < 1 {
		t.Fatalf("PlanConflicts = %d, want >= 1", got)
	}
	// The retried plan saw B at 10: it can draw at most min(10*0.5, 10)=5
	// from B, so A must cover at least 99 itself.
	takes := resp.Alloc.Dense(2)
	if takes[b] > 5+1e-9 {
		t.Errorf("take from B = %g exceeds post-conflict cap 5", takes[b])
	}
	var sum float64
	for _, x := range takes {
		sum += x
	}
	if math.Abs(sum-104) > 1e-6 {
		t.Errorf("takes sum to %g, want 104", sum)
	}

	st, err := s.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanConflicts < 1 {
		t.Errorf("Status.PlanConflicts = %d, want >= 1", st.PlanConflicts)
	}
}

// TestAllocConflictFallbackLocked drives more conflicts than the
// optimistic budget allows and checks alloc still terminates by solving
// under the lock (the hook cannot fire there, so the epoch holds still).
func TestAllocConflictFallbackLocked(t *testing.T) {
	s := NewServer(core.Config{}, nil)
	resp := s.dispatch(&Request{Register: &RegisterRequest{Name: "A", Capacity: 100}})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	a := resp.Register.Principal

	// Bump the epoch on every unlocked solve, so only the locked
	// fallback can commit.
	flip := 50.0
	s.mu.Lock()
	s.testHookUnlocked = func() {
		flip = 150 - flip
		if resp := s.dispatch(&Request{Report: &ReportRequest{Principal: a, Available: flip}}); resp.Err != "" {
			t.Error(resp.Err)
		}
	}
	s.mu.Unlock()

	resp = s.dispatch(&Request{Alloc: &AllocRequest{Principal: a, Amount: 20}})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	if got := s.PlanConflicts(); got != maxPlanConflicts {
		t.Errorf("PlanConflicts = %d, want %d (every optimistic attempt conflicted)", got, maxPlanConflicts)
	}
}

// TestAllocParallelNoOverdraw runs allocations, releases, and reports
// against one server from many goroutines (run under -race) and then
// checks conservation: every availability stays within [0, reported] and
// all granted leases release cleanly.
func TestAllocParallelNoOverdraw(t *testing.T) {
	s := NewServer(core.Config{}, nil)
	const n = 4
	ids := make([]int, n)
	names := []string{"A", "B", "C", "D"}
	for i, name := range names {
		resp := s.dispatch(&Request{Register: &RegisterRequest{Name: name, Capacity: 100}})
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
		ids[i] = resp.Register.Principal
	}
	for i := 0; i < n; i++ {
		resp := s.dispatch(&Request{Share: &ShareRequest{From: ids[i], To: ids[(i+1)%n], Fraction: 0.4}})
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := ids[g%n]
			for round := 0; round < 30; round++ {
				resp := s.dispatch(&Request{Alloc: &AllocRequest{Principal: p, Amount: 15}})
				if resp.Err != "" {
					continue // insufficient under contention is legitimate
				}
				rel := s.dispatch(&Request{Release: &ReleaseRequest{Lease: resp.Alloc.Lease}})
				if rel.Err != "" {
					t.Errorf("release: %s", rel.Err)
					return
				}
				if round%7 == 0 {
					s.dispatch(&Request{Report: &ReportRequest{Principal: p, Available: 100}})
				}
			}
		}(g)
	}
	wg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.leases) != 0 {
		t.Errorf("%d leases left outstanding", len(s.leases))
	}
	for i, a := range s.avail {
		if a < 0 || a > s.reported[i]+1e-9 {
			t.Errorf("avail[%d] = %g outside [0, %g]", i, a, s.reported[i])
		}
	}
}
