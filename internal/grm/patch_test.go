package grm

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestPatchedPlannerConcurrent drives the planner a share or revoke patches
// in place from several goroutines at once, on one Server and on a
// Sharded: each registers a block of its own — a chain of relative
// agreements closed by an absolute back-edge — then shares, allocates,
// releases, revokes, reports and reads Status round after round, and checks
// every reply against what it asked. The writes patch the one planner the
// others plan on, so a patch that raced a plan, or one worker's write that
// reached another's block, shows up here, and under -race as a data race.
func TestPatchedPlannerConcurrent(t *testing.T) {
	const workers, block = 4, 8
	rounds := 30
	if testing.Short() {
		rounds = 10
	}
	type target struct {
		handle func(*Request) *Response
		status func() (*Status, error)
		close  func() error
	}
	for _, tc := range []struct {
		name string
		open func() target
	}{
		{"server", func() target {
			s := NewServer(core.Config{}, nil)
			s.SetLeaseTTL(time.Hour)
			return target{s.Handle, s.Status, s.Close}
		}},
		{"sharded", func() target {
			g := NewSharded(2, core.Config{}, nil)
			g.SetLeaseTTL(time.Hour)
			return target{g.Handle, g.Status, g.Close}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tg := tc.open()
			defer tg.close()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					patchWorker(t, w, block, rounds, tg.handle, tg.status)
				}(w)
			}
			wg.Wait()
			st, err := tg.status()
			if err != nil {
				t.Fatal(err)
			}
			// The chains' agreements stay; every churned ticket was revoked.
			if st.Leases != 0 || st.Agreements != workers*block || len(st.Principals) != workers*block {
				t.Fatalf("after the workers: %d leases, %d agreements, %d principals", st.Leases, st.Agreements, len(st.Principals))
			}
		})
	}
}

// patchWorker is one goroutine of TestPatchedPlannerConcurrent.
func patchWorker(t *testing.T, w, block, rounds int, handle func(*Request) *Response, status func() (*Status, error)) {
	fail := func(format string, args ...any) {
		t.Errorf("worker %d: "+format, append([]any{w}, args...)...)
	}
	ids := make([]int, block)
	mine := map[int]bool{}
	for k := range ids {
		name := fmt.Sprintf("w%d/node%d", w, k)
		resp := handle(&Request{Register: &RegisterRequest{Name: name, Capacity: 10.1 + float64(k)/10}})
		if resp.Register == nil {
			fail("register %s: %s", name, resp.Err)
			return
		}
		ids[k], mine[resp.Register.Principal] = resp.Register.Principal, true
	}
	for k := range ids {
		share := &ShareRequest{From: ids[k], To: ids[(k+1)%block], Fraction: 0.3}
		if k == block-1 {
			share.Fraction, share.Quantity = 0, 2.5
		}
		if resp := handle(&Request{Share: share}); resp.Share == nil {
			fail("share %d→%d: %s", share.From, share.To, resp.Err)
			return
		}
	}
	for r := 0; r < rounds; r++ {
		// A relative share one round, an absolute one the next: both
		// patches run.
		share := &ShareRequest{From: ids[0], To: ids[1+r%(block-1)], Fraction: 0.005}
		if r%2 == 1 {
			share.Fraction, share.Quantity = 0, 0.5
		}
		shared := handle(&Request{Share: share})
		if shared.Share == nil {
			fail("round %d: share: %s", r, shared.Err)
			return
		}
		const amount = 12.5 // more than the head holds, so the plan draws on the chain
		granted := handle(&Request{Alloc: &AllocRequest{Principal: ids[0], Amount: amount}})
		if granted.Alloc == nil {
			fail("round %d: alloc: %s", r, granted.Err)
			return
		}
		sum := 0.0
		for k, p := range granted.Alloc.Sources {
			if !mine[p] {
				fail("round %d: a grant to %d takes from %d, outside its block %v", r, ids[0], p, ids)
			}
			sum += granted.Alloc.Takes[k]
		}
		if math.Abs(sum-amount) > 1e-6 {
			fail("round %d: a grant of %v takes %v in all", r, amount, sum)
		}
		for _, req := range []*Request{
			{Release: &ReleaseRequest{Lease: granted.Alloc.Lease}},
			{Revoke: &RevokeRequest{Ticket: shared.Share.Ticket}},
		} {
			if resp := handle(req); resp.Err != "" {
				fail("round %d: %s", r, resp.Err)
			}
		}
		reported := 10.1 + float64(r%3)/4
		if resp := handle(&Request{Report: &ReportRequest{Principal: ids[0], Available: reported}}); resp.Report == nil {
			fail("round %d: report: %s", r, resp.Err)
			return
		}
		st, err := status()
		if err != nil {
			fail("round %d: status: %v", r, err)
			return
		}
		found := false
		for _, p := range st.Principals {
			if p.Principal == ids[0] {
				found = true
				if p.Available != reported {
					fail("round %d: status shows %v available at %d, which reported %v", r, p.Available, ids[0], reported)
				}
			}
		}
		if !found {
			fail("round %d: status lists no principal %d", r, ids[0])
		}
	}
}
