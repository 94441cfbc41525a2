package grm

import (
	"fmt"
	"math"
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

// starServer serves a requester, principal 0 ("star0"), and n−1 donors
// that share all they have with it, each principal holding one unit, with
// a journal attached. A request for n − ½ then takes from all n: any n−1
// of them hold n−1 at most. The server is closed when the test ends.
func starServer(t testing.TB, n int) (*Server, *store.MemLog) {
	t.Helper()
	s := NewServer(core.Config{ComponentLP: true}, nil)
	t.Cleanup(func() { s.Close() })
	wal := store.NewMemLog()
	s.SetLog(wal)
	for i := 0; i < n; i++ {
		if resp := s.Handle(&Request{Register: &RegisterRequest{Name: fmt.Sprintf("star%d", i), Capacity: 1}}); resp.Err != "" {
			t.Fatal(resp.Err)
		}
	}
	for i := 1; i < n; i++ {
		if resp := s.Handle(&Request{Share: &ShareRequest{From: i, To: 0, Fraction: 1}}); resp.Err != "" {
			t.Fatal(resp.Err)
		}
	}
	return s, wal
}

// samePairs reports whether two grants name the same sources and the same
// take bits.
func samePairs(a, b *AllocReply) error {
	if len(a.Sources) != len(b.Sources) || len(a.Takes) != len(b.Takes) {
		return fmt.Errorf("%d and %d sources", len(a.Sources), len(b.Sources))
	}
	for k := range a.Sources {
		if a.Sources[k] != b.Sources[k] || math.Float64bits(a.Takes[k]) != math.Float64bits(b.Takes[k]) {
			return fmt.Errorf("entry %d: %v from %d against %v from %d", k, a.Takes[k], a.Sources[k], b.Takes[k], b.Sources[k])
		}
	}
	return nil
}

// capped fails unless a reply's pair slices end at their length, so that
// an append can never write into the object that holds them.
func capped(t *testing.T, how string, r *AllocReply) {
	t.Helper()
	if cap(r.Sources) != len(r.Sources) || cap(r.Takes) != len(r.Takes) {
		t.Fatalf("%s: pairs of %d with room for %d sources and %d takes", how, len(r.Sources), cap(r.Sources), cap(r.Takes))
	}
}

// TestGrantBoxBoundary holds grants on both sides of grantInline, and one
// of the 63 sources a 64-ring's grants take from, to the lease that backs
// them three ways: through Handle, where the lease and the reply share the
// pairs; from a loopback LRM, whose reply is decoded into its own box; and
// after a replay of the journal rebuilt the lease.
func TestGrantBoxBoundary(t *testing.T) {
	for _, n := range []int{1, grantInline, grantInline + 1, 63} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			s, wal := starServer(t, n)
			amount := float64(n) - 0.5
			resp := s.Handle(&Request{Alloc: &AllocRequest{Amount: amount}})
			if resp.Alloc == nil {
				t.Fatal(resp.Err)
			}
			handled := resp.Alloc
			if len(handled.Sources) != n {
				t.Fatalf("the grant takes from %d sources, want %d", len(handled.Sources), n)
			}
			s.mu.Lock()
			le := s.leases[handled.Lease]
			s.mu.Unlock()
			if &le.sources[0] != &handled.Sources[0] || &le.takes[0] != &handled.Takes[0] {
				t.Fatal("the lease and the reply do not share the pairs")
			}
			capped(t, "through Handle", handled)
			if resp := s.Handle(&Request{Release: &ReleaseRequest{Lease: handled.Lease}}); resp.Err != "" {
				t.Fatal(resp.Err)
			}

			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go s.Serve(l)
			lrm, err := Dial(l.Addr().String(), "star0", 1)
			if err != nil {
				t.Fatal(err)
			}
			defer lrm.Close()
			wired, err := lrm.Allocate(amount)
			if err != nil {
				t.Fatal(err)
			}
			s.mu.Lock()
			le = s.leases[wired.Lease]
			s.mu.Unlock()
			if err := samePairs(wired, &AllocReply{Sources: le.sources, Takes: le.takes}); err != nil {
				t.Fatalf("over the wire: %v", err)
			}
			capped(t, "over the wire", wired)

			r := NewServer(core.Config{ComponentLP: true}, nil)
			defer r.Close()
			if err := r.Recover(wal); err != nil {
				t.Fatal(err)
			}
			leasesEqual(t, s, r)
			le = r.leases[wired.Lease]
			if err := samePairs(wired, &AllocReply{Sources: le.sources, Takes: le.takes}); err != nil {
				t.Fatalf("after replay: %v", err)
			}
		})
	}
}
