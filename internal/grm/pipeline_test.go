package grm

import (
	"net"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestBatchedAllocPipeline drives a burst of concurrent allocations
// through a served GRM and checks the admission-queue scheduler served
// them: every request gets a distinct lease, the books balance, and the
// batch metrics account for every request.
func TestBatchedAllocPipeline(t *testing.T) {
	s := NewServer(core.Config{}, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	defer s.Close()

	const nodes = 8
	lrms := make([]*LRM, nodes)
	for i := range lrms {
		lrm, err := Dial(l.Addr().String(), string(rune('A'+i)), 100)
		if err != nil {
			t.Fatal(err)
		}
		defer lrm.Close()
		lrms[i] = lrm
	}
	// A shares half its currency with everyone so allocations route
	// through agreements, not just local capacity.
	for i := 1; i < nodes; i++ {
		if _, err := lrms[0].ShareRelative(lrms[i].Principal(), 0.5/float64(nodes)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	replies := make([]*AllocReply, nodes)
	errs := make([]error, nodes)
	for i, lrm := range lrms {
		wg.Add(1)
		go func(i int, lrm *LRM) {
			defer wg.Done()
			replies[i], errs[i] = lrm.Allocate(5 + float64(i))
		}(i, lrm)
	}
	wg.Wait()

	seen := map[int]bool{}
	for i := range replies {
		if errs[i] != nil {
			t.Fatalf("alloc %d: %v", i, errs[i])
		}
		if seen[replies[i].Lease] {
			t.Fatalf("lease token %d handed out twice", replies[i].Lease)
		}
		seen[replies[i].Lease] = true
		var sum float64
		for _, take := range replies[i].Takes {
			sum += take
		}
		if want := 5 + float64(i); sum < want-1e-6 || sum > want+1e-6 {
			t.Fatalf("alloc %d: takes sum %v, want %v", i, sum, want)
		}
	}

	st, err := s.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Leases != nodes {
		t.Fatalf("status reports %d leases, want %d", st.Leases, nodes)
	}
	if st.Batches == 0 {
		t.Fatal("no batches recorded: allocations bypassed the pipeline")
	}
	if st.BatchedRequests != nodes {
		t.Fatalf("batched %d requests, want %d", st.BatchedRequests, nodes)
	}
	if st.MaxBatch < 1 || st.MaxBatch > nodes {
		t.Fatalf("max batch %d out of range [1,%d]", st.MaxBatch, nodes)
	}
	if st.BatchPlanNanos <= 0 {
		t.Fatal("batch latency metric never accumulated")
	}

	// Books must balance: availability plus outstanding takes equals the
	// reported capacities.
	takenFrom := make([]float64, len(st.Principals))
	for _, r := range replies {
		r.Each(func(p int, take float64) { takenFrom[p] += take })
	}
	for i, p := range st.Principals {
		taken := takenFrom[i]
		if got := p.Available + taken; got < p.Reported-1e-6 || got > p.Reported+1e-6 {
			t.Fatalf("principal %d: avail %v + taken %v != reported %v", i, p.Available, taken, p.Reported)
		}
	}

	// Releases drain the leases and restore the books.
	for i, lrm := range lrms {
		if err := lrm.Release(replies[i].Lease); err != nil {
			t.Fatal(err)
		}
	}
	st, err = s.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Leases != 0 {
		t.Fatalf("%d leases left after releases", st.Leases)
	}
	for _, p := range st.Principals {
		if p.Available < p.Reported-1e-6 || p.Available > p.Reported+1e-6 {
			t.Fatalf("principal %d: avail %v after releases, want %v", p.Principal, p.Available, p.Reported)
		}
	}
}

// TestAllocAfterCloseRefused checks the pipeline's shutdown path: a
// dispatch arriving after Close is answered with an error instead of
// deadlocking on a dead scheduler.
func TestAllocAfterCloseRefused(t *testing.T) {
	s := NewServer(core.Config{}, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	lrm, err := Dial(l.Addr().String(), "A", 100)
	if err != nil {
		t.Fatal(err)
	}
	defer lrm.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	resp := s.dispatch(&Request{Alloc: &AllocRequest{Principal: 0, Amount: 1}})
	if resp.Err == "" {
		t.Fatal("alloc after Close succeeded")
	}
}
