package modeltest

import (
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/grm"
	"repro/internal/store"
)

// TestIncrementalEquivalenceAfterRecover is the WAL leg of the
// plan-incremental property: a live GRM that reached its planner through
// incremental share/register patches must agree — bit for bit — with a
// fresh server that recovered the same history from the WAL and rebuilt
// its planner from the replayed agreement books. A seeded churn schedule
// (reports, relative and absolute shares, revocations, allocations)
// drives the live server over real connections first, so the planner is
// genuinely patched, not rebuilt; then both servers answer the same
// capacity query and the same allocation request from identical books.
func TestIncrementalEquivalenceAfterRecover(t *testing.T) {
	wal := store.NewMemLog()
	srv := grm.NewServer(core.Config{}, nil)
	if err := srv.Recover(wal); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	const n = 4
	lrms := make([]*grm.LRM, n)
	for p := 0; p < n; p++ {
		lrm, err := grm.Dial(l.Addr().String(), fmt.Sprintf("p%d", p), 10+float64(5*p))
		if err != nil {
			t.Fatalf("dial p%d: %v", p, err)
		}
		defer lrm.Close()
		lrms[p] = lrm
	}

	rng := rand.New(rand.NewSource(11))
	var tickets []int
	for step := 0; step < 60; step++ {
		p := rng.Intn(n)
		switch rng.Intn(5) {
		case 0:
			if err := lrms[p].Report(1 + rng.Float64()*20); err != nil {
				t.Fatalf("step %d: report: %v", step, err)
			}
		case 1:
			to := (p + 1 + rng.Intn(n-1)) % n
			tk, err := lrms[p].ShareRelative(to, 0.05+rng.Float64()*0.2)
			if err != nil {
				t.Fatalf("step %d: share %d->%d: %v", step, p, to, err)
			}
			tickets = append(tickets, tk)
		case 2:
			to := (p + 1 + rng.Intn(n-1)) % n
			tk, err := lrms[p].ShareAbsolute(to, 0.5+rng.Float64())
			if err != nil {
				t.Fatalf("step %d: absolute share %d->%d: %v", step, p, to, err)
			}
			tickets = append(tickets, tk)
		case 3:
			if len(tickets) == 0 {
				continue
			}
			i := rng.Intn(len(tickets))
			if err := lrms[p].Revoke(tickets[i]); err != nil {
				t.Fatalf("step %d: revoke %d: %v", step, tickets[i], err)
			}
			tickets = append(tickets[:i], tickets[i+1:]...)
		default:
			// Allocations force the planner into existence, so later
			// shares hit the incremental patch path; release immediately
			// so outstanding leases don't complicate the books.
			reply, err := lrms[p].Allocate(0.25)
			if err != nil {
				t.Fatalf("step %d: allocate: %v", step, err)
			}
			if err := lrms[p].Release(reply.Lease); err != nil {
				t.Fatalf("step %d: release: %v", step, err)
			}
		}
	}

	liveAvail, liveCaps, err := lrms[0].Capacities()
	if err != nil {
		t.Fatal(err)
	}

	// Recover a second server from the WAL as it stands. Replay rebuilds
	// the agreement books record by record; its planner is constructed
	// from scratch on first use — the full-recompute side of the
	// equivalence. (Anything the live server journals from here on is
	// invisible to the recovered one: Recover reads the log once.)
	srv2 := grm.NewServer(core.Config{}, nil)
	if err := srv2.Recover(wal); err != nil {
		t.Fatalf("recover: %v", err)
	}
	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(l2)
	defer srv2.Close()

	// Re-attaching "p0" resets its availability to the dialed capacity,
	// so restore the live value explicitly before comparing.
	p0b, err := grm.Dial(l2.Addr().String(), "p0", 10)
	if err != nil {
		t.Fatal(err)
	}
	defer p0b.Close()
	if err := p0b.Report(liveAvail[0]); err != nil {
		t.Fatal(err)
	}

	recAvail, recCaps, err := p0b.Capacities()
	if err != nil {
		t.Fatal(err)
	}
	if len(recCaps) != n || len(liveCaps) != n {
		t.Fatalf("capacity vectors: live %d, recovered %d, want %d", len(liveCaps), len(recCaps), n)
	}
	for i := 0; i < n; i++ {
		//lint:ignore sharingvet/floateq recovery replay is pinned bit-identical to the live incremental state
		if recAvail[i] != liveAvail[i] || recCaps[i] != liveCaps[i] {
			t.Errorf("principal %d: live (avail=%g, cap=%g), recovered (avail=%g, cap=%g)",
				i, liveAvail[i], liveCaps[i], recAvail[i], recCaps[i])
		}
	}

	// The same allocation request against the same books: the live
	// server's incrementally patched planner and the recovered server's
	// freshly rebuilt one must return the identical solution.
	amount := liveCaps[0] * 0.5
	livePlan, err := lrms[0].Allocate(amount)
	if err != nil {
		t.Fatalf("live allocate: %v", err)
	}
	recPlan, err := p0b.Allocate(amount)
	if err != nil {
		t.Fatalf("recovered allocate: %v", err)
	}
	//lint:ignore sharingvet/floateq recovery replay is pinned bit-identical to the live incremental state
	if recPlan.Theta != livePlan.Theta {
		t.Errorf("θ = %g live, %g recovered", livePlan.Theta, recPlan.Theta)
	}
	if !reflect.DeepEqual(recPlan.Sources, livePlan.Sources) || len(recPlan.Takes) != len(livePlan.Takes) {
		t.Fatalf("takes: live %d entries from %v, recovered %d from %v", len(livePlan.Takes), livePlan.Sources, len(recPlan.Takes), recPlan.Sources)
	}
	for i := range livePlan.Takes {
		//lint:ignore sharingvet/floateq recovery replay is pinned bit-identical to the live incremental state
		if recPlan.Takes[i] != livePlan.Takes[i] {
			t.Errorf("take[%d] = %g live, %g recovered", i, livePlan.Takes[i], recPlan.Takes[i])
		}
	}
}
