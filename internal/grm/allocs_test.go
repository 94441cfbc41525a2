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
