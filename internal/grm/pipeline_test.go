package grm

import (
	"net"
	"reflect"
	"sync"
	"sync/atomic"
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

	// A server driven through dispatch without ever being served plans on
	// the same pipeline: the same requests, two of them borrowing from a
	// parent, get bit-equal replies either way.
	t.Run("dispatch before Serve", func(t *testing.T) {
		unserved, served := federatedSequence(t, false), federatedSequence(t, true)
		if !reflect.DeepEqual(unserved, served) {
			t.Fatalf("replies differ:\nunserved %+v\nserved   %+v", unserved, served)
		}
	})
}

// federatedSequence drives one fixed request sequence through a child
// GRM's dispatch — local allocations, a release, and two requests that
// exceed local capacity and borrow from the parent — and returns the
// allocation replies. serve decides whether the child is serving a
// listener first.
func federatedSequence(t *testing.T, serve bool) []AllocReply {
	t.Helper()
	_, parentAddr := startServer(t, core.Config{})
	donor, err := Dial(parentAddr, "donor", 500)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { donor.Close() })

	child := NewServer(core.Config{}, nil)
	if serve {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go child.Serve(l)
	}
	t.Cleanup(func() { child.Close() })
	do := func(req *Request) *Response {
		t.Helper()
		resp := child.Handle(req)
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
		return resp
	}
	a := do(&Request{Register: &RegisterRequest{Name: "A", Capacity: 20}}).Register.Principal
	b := do(&Request{Register: &RegisterRequest{Name: "B", Capacity: 10}}).Register.Principal
	do(&Request{Share: &ShareRequest{From: a, To: b, Fraction: 0.5}})
	if err := child.AttachParent(parentAddr, "cluster"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { child.DetachParent() })
	if _, err := donor.ShareRelative(child.Parent().Principal(), 0.6); err != nil {
		t.Fatal(err)
	}

	var replies []AllocReply
	alloc := func(p int, amount float64) int {
		t.Helper()
		r := do(&Request{Alloc: &AllocRequest{Principal: p, Amount: amount}}).Alloc
		replies = append(replies, *r)
		return r.Lease
	}
	first := alloc(b, 12) // B's own 10 plus 2 through A's share
	alloc(a, 30)          // 18 left locally: borrows 12
	alloc(b, 1)           // nothing left locally: borrows it all
	do(&Request{Release: &ReleaseRequest{Lease: first}})
	alloc(b, 4)
	st, err := child.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Federation.Borrows) != 2 {
		t.Fatalf("sequence made %d borrows, want 2", len(st.Federation.Borrows))
	}
	return replies
}

// TestAllocParallelNoOverdraw runs local allocations, allocations that
// must borrow from a parent GRM, releases, and reports against one server
// from many goroutines (run under -race) and then checks conservation:
// every availability stays within [0, reported], all granted leases
// release cleanly, and every borrow is back at the parent.
func TestAllocParallelNoOverdraw(t *testing.T) {
	parentSrv, parentAddr := startServer(t, core.Config{})
	donor, err := Dial(parentAddr, "donor", 10000)
	if err != nil {
		t.Fatal(err)
	}
	defer donor.Close()

	s := NewServer(core.Config{}, nil)
	defer s.Close()
	const n = 4
	ids := make([]int, n)
	names := []string{"A", "B", "C", "D"}
	for i, name := range names {
		resp := s.Handle(&Request{Register: &RegisterRequest{Name: name, Capacity: 100}})
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
		ids[i] = resp.Register.Principal
	}
	for i := 0; i < n; i++ {
		resp := s.Handle(&Request{Share: &ShareRequest{From: ids[i], To: ids[(i+1)%n], Fraction: 0.4}})
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
	}
	if err := s.AttachParent(parentAddr, "cluster"); err != nil {
		t.Fatal(err)
	}
	defer s.DetachParent()
	if _, err := donor.ShareRelative(s.Parent().Principal(), 0.9); err != nil {
		t.Fatal(err)
	}
	before := availVector(t, parentSrv)

	var wg sync.WaitGroup
	var borrowed atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := ids[g%n]
			for round := 0; round < 30; round++ {
				// 15 fits locally; 200 is beyond what any principal can
				// reach through the ring and needs the parent.
				for _, amount := range []float64{15, 200} {
					resp := s.Handle(&Request{Alloc: &AllocRequest{Principal: p, Amount: amount}})
					if resp.Err != "" {
						continue // insufficient under contention is legitimate
					}
					if amount > 15 {
						borrowed.Add(1)
					}
					rel := s.Handle(&Request{Release: &ReleaseRequest{Lease: resp.Alloc.Lease}})
					if rel.Err != "" {
						t.Errorf("release: %s", rel.Err)
						return
					}
				}
				if round%7 == 0 {
					s.Handle(&Request{Report: &ReportRequest{Principal: p, Available: 100}})
				}
			}
		}(g)
	}
	wg.Wait()
	if borrowed.Load() == 0 {
		t.Error("no oversized request was granted: the borrow path never committed")
	}

	st, err := s.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Leases != 0 {
		t.Errorf("%d leases left outstanding", st.Leases)
	}
	if len(st.Federation.Borrows) != 0 {
		t.Errorf("borrows left outstanding: %+v", st.Federation.Borrows)
	}
	for _, p := range st.Principals {
		if p.Available < 0 || p.Available > p.Reported+1e-9 {
			t.Errorf("avail[%d] = %g outside [0, %g]", p.Principal, p.Available, p.Reported)
		}
	}
	if after := availVector(t, parentSrv); !sameVector(before, after) {
		t.Errorf("parent availability = %v, want pre-borrow %v (a borrow leaked)", after, before)
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
	resp := s.Handle(&Request{Alloc: &AllocRequest{Principal: 0, Amount: 1}})
	if resp.Err == "" {
		t.Fatal("alloc after Close succeeded")
	}
}

// blockServer builds an in-process server over blocks of 8 principals,
// each block a chain of relative shares closed by one absolute share, with
// capacities no float represents exactly, and plans once so the planner and
// a plan workspace exist.
func blockServer(t testing.TB, cfg core.Config, blocks int) *Server {
	t.Helper()
	s := NewServer(cfg, nil)
	n := 8 * blocks
	for i := 0; i < n; i++ {
		resp := s.Handle(&Request{Register: &RegisterRequest{Name: "p" + string(rune('a'+i/26)) + string(rune('a'+i%26)), Capacity: 10.1 + float64(i%8)/10}})
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
	}
	for b := 0; b < blocks; b++ {
		for k := 0; k < 8; k++ {
			share := &ShareRequest{From: 8*b + k, To: 8*b + (k+1)%8, Fraction: 0.3}
			if k == 7 {
				share.Fraction, share.Quantity = 0, 2.5
			}
			if resp := s.Handle(&Request{Share: share}); resp.Err != "" {
				t.Fatal(resp.Err)
			}
		}
	}
	return s
}

// TestCreditedReplanLeavesBooksExact plans a request that rejoined the
// queue with a borrowed credit and checks the books afterwards, bit for
// bit, against the recipe the pipeline replaced: PlanBatch over a copy of
// the view with the credit added, its takes debited from the view itself.
// The credit is lent on the requester's own entry of s.avail for the plan
// and must be put back exactly — 0.1 + 0.2 − 0.2 is not 0.1 — when the plan
// commits and when it fails.
func TestCreditedReplanLeavesBooksExact(t *testing.T) {
	for _, cfg := range []core.Config{{}, {ComponentLP: true}} {
		s := blockServer(t, cfg, 2)
		defer s.Close()
		const p = 3
		s.mu.Lock()
		s.avail[p] = 0.1
		planner, err := s.currentPlannerLocked()
		if err != nil {
			t.Fatal(err)
		}
		before := append([]float64(nil), s.avail...)
		s.mu.Unlock()

		sc := &batchScratch{replies: make([]*Response, maxBatchSize), live: make([]int, 0, maxBatchSize)}
		credited := func(amount float64) *allocJob {
			return &allocJob{
				req:         AllocRequest{Principal: p, Amount: amount},
				resp:        make(chan *Response, 1),
				parentLease: 7, credit: 0.2,
			}
		}

		// A plan no credit can cover fails and must leave every entry as it
		// was. (No parent is attached, so the job is refused, not sent to
		// borrow again; settle would repay lease 7 through a link this job
		// does not have, so plan and commit are driven directly.)
		s.mu.Lock()
		if _, err := s.allocLocked(planner, credited(1e6), sc); err == nil {
			t.Fatal("oversized credited request planned")
		}
		for i, got := range s.avail {
			if got != before[i] {
				t.Fatalf("%+v: failed credited plan moved avail[%d]: %v -> %v", cfg, i, before[i], got)
			}
		}

		v := append([]float64(nil), before...)
		v[p] += 0.2
		const amount = 4.3
		want := planner.PlanBatch(v, []core.BatchRequest{{Requester: p, Amount: amount}})[0]
		if want.Err != nil {
			t.Fatal(want.Err)
		}
		resp, err := s.allocLocked(planner, credited(amount), sc)
		if err != nil {
			t.Fatal(err)
		}
		reply := resp.Alloc
		for i, got := range s.avail {
			exp := before[i] - want.Alloc.Take[i]
			if exp < 0 {
				exp = 0
			}
			if got != exp {
				t.Fatalf("%+v: avail[%d] = %v after the credited commit, the replaced recipe gives %v", cfg, i, got, exp)
			}
		}
		if reply.Theta != want.Alloc.Theta {
			t.Fatalf("%+v: theta %v, PlanBatch gives %v", cfg, reply.Theta, want.Alloc.Theta)
		}
		if s.leases[reply.Lease].parentLease != 7 {
			t.Fatalf("%+v: the lease did not take over the borrow", cfg)
		}
		s.mu.Unlock()
	}
}
