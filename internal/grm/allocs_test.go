//go:build !race

package grm

import (
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

// TestHandleAllocReleaseAllocs pins what one warmed allocate+release pair
// through Server.Handle heap-allocates with a journal attached: the
// lease, its two pair slices, the two replies and their envelopes — nothing
// for the admission job, the plan or the journal records. The race
// detector's instrumentation allocates, so the race legs skip this file.
func TestHandleAllocReleaseAllocs(t *testing.T) {
	s := blockServer(t, core.Config{ComponentLP: true}, 4)
	defer s.Close()
	s.SetLog(store.NewMemLog())
	alloc := &Request{Alloc: &AllocRequest{Principal: 9, Amount: 12.5}}
	release := &Request{Release: &ReleaseRequest{}}
	pair := func() {
		resp := s.Handle(alloc)
		if resp.Alloc == nil {
			t.Fatal(resp.Err)
		}
		release.Release.Lease = resp.Alloc.Lease
		if resp := s.Handle(release); resp.Err != "" {
			t.Fatal(resp.Err)
		}
	}
	for i := 0; i < 10; i++ {
		pair()
	}
	if got := testing.AllocsPerRun(200, pair); got > 8 {
		t.Fatalf("allocate+release pair makes %v allocations, want at most 8", got)
	}
}

// TestChurnCycleAllocs pins the write path beside the read path: one
// share → allocate → release → revoke → report cycle through Server.Handle
// with a journal attached, at the benchmark's churn128 shape (16 blocks of
// eight under the full formulation, a block's head sharing 0.005 down its
// chain). Each of the two writes derives a planner and drops skeletons, and
// the allocate between them rebuilds the requester's 129-variable model and
// clones it; the cycle made 1 272 allocations when a build formatted a name
// per variable and row and made a map and a term slice per constraint. The
// bound is the measured 76 plus a fifth.
func TestChurnCycleAllocs(t *testing.T) {
	s := blockServer(t, core.Config{}, 16)
	defer s.Close()
	s.SetLog(store.NewMemLog())
	share := &Request{Share: &ShareRequest{From: 0, Fraction: 0.005}}
	alloc := &Request{Alloc: &AllocRequest{Principal: 0, Amount: 1.5}}
	release := &Request{Release: &ReleaseRequest{}}
	revoke := &Request{Revoke: &RevokeRequest{}}
	report := &Request{Report: &ReportRequest{Principal: 0, Available: 10.1}}
	n := 0
	cycle := func() {
		share.Share.To = 1 + n%7
		n++
		shared := s.Handle(share)
		if shared.Share == nil {
			t.Fatal(shared.Err)
		}
		leased := s.Handle(alloc)
		if leased.Alloc == nil {
			t.Fatal(leased.Err)
		}
		release.Release.Lease, revoke.Revoke.Ticket = leased.Alloc.Lease, shared.Share.Ticket
		for _, req := range []*Request{release, revoke, report} {
			if resp := s.Handle(req); resp.Err != "" {
				t.Fatal(resp.Err)
			}
		}
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	got := testing.AllocsPerRun(100, cycle)
	t.Logf("one churn cycle makes %v allocations", got)
	if got > 91 {
		t.Fatalf("one churn cycle makes %v allocations, want at most 91", got)
	}
}
