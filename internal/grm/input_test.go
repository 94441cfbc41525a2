package grm

import (
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// TestNonFiniteQuantitiesRefused: a float off the wire is any bit pattern.
// Every capacity, availability, amount, fraction and quantity that is NaN,
// infinite or negative is answered with an error, in process and over a
// hello+frame connection alike; the books stay as they were and the server
// plans the next allocation. Before the handlers checked, one such frame
// panicked the scheduler under s.mu (the NaN and +Inf rows) or was stored
// (an infinite absolute share).
func TestNonFiniteQuantitiesRefused(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	s, addr := startServer(t, core.Config{})
	for _, name := range []string{"A", "B"} {
		if resp := s.Handle(&Request{Register: &RegisterRequest{Name: name, Capacity: 10}}); resp.Err != "" {
			t.Fatal(resp.Err)
		}
	}
	if resp := s.Handle(&Request{Share: &ShareRequest{From: 1, To: 0, Fraction: 0.5}}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wire, err := newBinWire(conn, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer wire.close()
	overWire := func(req *Request) *Response {
		t.Helper()
		resp, err := wire.do(req, 5*time.Second)
		if err != nil {
			t.Fatalf("the connection did not survive %+v: %v", req, err)
		}
		return resp
	}

	cases := map[string]*Request{
		"register NaN":        {Register: &RegisterRequest{Name: "C", Capacity: nan}},
		"register +Inf":       {Register: &RegisterRequest{Name: "C", Capacity: inf}},
		"re-register NaN":     {Register: &RegisterRequest{Name: "A", Capacity: nan}},
		"re-register -1":      {Register: &RegisterRequest{Name: "A", Capacity: -1}},
		"report NaN":          {Report: &ReportRequest{Principal: 0, Available: nan}},
		"report +Inf":         {Report: &ReportRequest{Principal: 0, Available: inf}},
		"report -Inf":         {Report: &ReportRequest{Principal: 0, Available: math.Inf(-1)}},
		"alloc NaN":           {Alloc: &AllocRequest{Principal: 0, Amount: nan}},
		"alloc +Inf":          {Alloc: &AllocRequest{Principal: 0, Amount: inf}},
		"alloc -1":            {Alloc: &AllocRequest{Principal: 0, Amount: -1}},
		"share fraction NaN":  {Share: &ShareRequest{From: 0, To: 1, Fraction: nan}},
		"share fraction +Inf": {Share: &ShareRequest{From: 0, To: 1, Fraction: inf}},
		"share quantity NaN":  {Share: &ShareRequest{From: 0, To: 1, Quantity: nan}},
		"share quantity +Inf": {Share: &ShareRequest{From: 0, To: 1, Quantity: inf}},
		"share quantity -1":   {Share: &ShareRequest{From: 0, To: 1, Quantity: -1}},
	}
	before := statusJSON(t, s)
	for name, req := range cases {
		for via, send := range map[string]func(*Request) *Response{"Handle": s.Handle, "wire": overWire} {
			if resp := send(req); resp.Err == "" {
				t.Errorf("%s via %s: accepted (%+v)", name, via, resp)
			}
			if after := statusJSON(t, s); after != before {
				t.Fatalf("%s via %s moved the books\n %s\nwas\n %s", name, via, after, before)
			}
			// Still up, still planning: 12 needs B's share.
			resp := send(&Request{Alloc: &AllocRequest{Principal: 0, Amount: 12}})
			if resp.Err != "" {
				t.Fatalf("%s via %s: the next allocation failed: %s", name, via, resp.Err)
			}
			if resp := send(&Request{Release: &ReleaseRequest{Lease: resp.Alloc.Lease}}); resp.Err != "" {
				t.Fatal(resp.Err)
			}
		}
	}
}

// TestRecoverRefusesNonFiniteRecord: the log is input too. A journal that
// already holds a NaN report (a server before the handlers checked wrote
// one, then died at its next plan) stops recovery at that record, by seq,
// and does not boot a server that crashes at its first allocation.
func TestRecoverRefusesNonFiniteRecord(t *testing.T) {
	for name, bad := range map[string]*store.Record{
		"report":   {Kind: store.KindReport, Principal: 0, Available: math.NaN()},
		"register": {Kind: store.KindRegister, Principal: 2, Name: "C", Capacity: math.Inf(1)},
		"share":    {Kind: store.KindShare, From: 0, To: 1, Quantity: math.Inf(1)},
		"alloc":    {Kind: store.KindAlloc, Lease: 1, Sources: []int{0}, Takes: []float64{math.NaN()}},
	} {
		dir := t.TempDir()
		wal, err := store.OpenFileLog(dir)
		if err != nil {
			t.Fatal(err)
		}
		bad.Seq = 3
		for _, rec := range []*store.Record{
			{Seq: 1, Kind: store.KindRegister, Principal: 0, Name: "A", Capacity: 10},
			{Seq: 2, Kind: store.KindRegister, Principal: 1, Name: "B", Capacity: 10},
			bad,
		} {
			if err := wal.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		wal.Close()
		if wal, err = store.OpenFileLog(dir); err != nil {
			t.Fatal(err)
		}
		err = NewServer(core.Config{}, nil).Recover(wal)
		wal.Close()
		if err == nil || !strings.Contains(err.Error(), "seq 3") || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("%s: Recover = %v, want a refusal naming seq 3 and the non-finite value", name, err)
		}
	}
}

// liveTickets counts the unrevoked wire agreements the slow way: the walk
// Status used to make under s.mu, kept here as the counter's oracle.
func liveTickets(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, sh := range s.shareHist {
		if !s.sys.Ticket(sh.tid).Revoked {
			n++
		}
	}
	return n
}

// TestStatusAgreementsIsCounted: Status.Agreements is a counter the share
// and revoke helpers keep, not a walk of every ticket ever issued. It must
// read what the walk reads after shares, a revoke, the retry of that
// revoke, a compaction and a recovery — from a log this build wrote and
// from the JSON-era fixture, whose snapshot already holds a revoked share.
func TestStatusAgreementsIsCounted(t *testing.T) {
	agreements := func(s *Server, want int, when string) {
		t.Helper()
		st, err := s.Status()
		if err != nil {
			t.Fatal(err)
		}
		if st.Agreements != want || liveTickets(s) != want {
			t.Fatalf("%s: Status counts %d agreements, a walk of the tickets %d, want %d", when, st.Agreements, liveTickets(s), want)
		}
	}
	must := func(resp *Response) *Response {
		t.Helper()
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
		return resp
	}
	// churn shares twice from principal 1 to 0, revokes the first of the
	// two and retries the revoke, compacts, and recovers from dir: one
	// agreement more than it started with, at every step after the revoke.
	churn := func(s *Server, dir string, base int) {
		t.Helper()
		first := must(s.Handle(&Request{Share: &ShareRequest{From: 1, To: 0, Fraction: 0.125}})).Share.Ticket
		must(s.Handle(&Request{Share: &ShareRequest{From: 1, To: 0, Quantity: 2}}))
		agreements(s, base+2, "after two shares")
		must(s.Handle(&Request{Revoke: &RevokeRequest{Ticket: first}}))
		agreements(s, base+1, "after a revoke")
		must(s.Handle(&Request{Revoke: &RevokeRequest{Ticket: first}}))
		agreements(s, base+1, "after the revoke's retry")
		for _, compacted := range []bool{false, true} {
			if compacted {
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
				agreements(s, base+1, "after Compact")
			}
			raw, err := os.ReadFile(filepath.Join(dir, "wal.log"))
			if err != nil {
				t.Fatal(err)
			}
			copyDir := t.TempDir()
			if err := os.WriteFile(filepath.Join(copyDir, "wal.log"), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if snap, err := os.ReadFile(filepath.Join(dir, "snapshot.wal")); err == nil {
				if err := os.WriteFile(filepath.Join(copyDir, "snapshot.wal"), snap, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			wal, err := store.OpenFileLog(copyDir)
			if err != nil {
				t.Fatal(err)
			}
			r := NewServer(core.Config{}, nil)
			if err := r.Recover(wal); err != nil {
				t.Fatal(err)
			}
			agreements(r, base+1, "after Recover")
			must(r.Handle(&Request{Share: &ShareRequest{From: 0, To: 1, Fraction: 0.25}}))
			agreements(r, base+2, "after a share on the recovered server")
			r.Close()
			wal.Close()
		}
	}

	t.Run("binary", func(t *testing.T) {
		dir := t.TempDir()
		wal, err := store.OpenFileLog(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer wal.Close()
		s := NewServer(core.Config{}, nil)
		defer s.Close()
		s.SetLog(wal)
		driveWorkload(t, s) // three shares, one of them revoked
		agreements(s, 2, "after the workload")
		churn(s, dir, 2)
	})
	t.Run("json_wal", func(t *testing.T) {
		dir := t.TempDir()
		for _, name := range []string{"snapshot.wal", "wal.log"} {
			raw, err := os.ReadFile(filepath.Join("testdata", "json_wal", name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		wal, err := store.OpenFileLog(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer wal.Close()
		s := NewServer(core.Config{}, nil)
		defer s.Close()
		if err := s.Recover(wal); err != nil {
			t.Fatal(err)
		}
		agreements(s, 4, "after recovering the fixture")
		churn(s, dir, 4)
	})
}
