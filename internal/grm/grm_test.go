package grm

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
)

// startServer launches a GRM on a loopback port and returns it with its
// address. The server is shut down when the test ends.
func startServer(t *testing.T, cfg core.Config) (*Server, string) {
	t.Helper()
	s := NewServer(cfg, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	return s, l.Addr().String()
}

func TestRegisterAndPeers(t *testing.T) {
	_, addr := startServer(t, core.Config{})
	a, err := Dial(addr, "siteA", 100)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(addr, "siteB", 50)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if a.Principal() == b.Principal() {
		t.Error("distinct LRMs share a principal id")
	}
	names, err := a.Peers()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[a.Principal()] != "siteA" || names[b.Principal()] != "siteB" {
		t.Errorf("peers = %v", names)
	}
}

func TestShareReportAllocate(t *testing.T) {
	_, addr := startServer(t, core.Config{})
	a, err := Dial(addr, "A", 100)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(addr, "B", 80)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// B shares 50% with A.
	if _, err := b.ShareRelative(a.Principal(), 0.5); err != nil {
		t.Fatal(err)
	}
	avail, caps, err := a.Capacities()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(avail[b.Principal()]-80) > 1e-9 {
		t.Errorf("availability of B = %g, want 80", avail[b.Principal()])
	}
	if math.Abs(caps[a.Principal()]-140) > 1e-9 {
		t.Errorf("capacity of A = %g, want 100 + 40", caps[a.Principal()])
	}

	// A allocates 120: must draw up to 40 from B.
	reply, err := a.Allocate(120)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, take := range reply.Takes {
		total += take
	}
	if math.Abs(total-120) > 1e-6 {
		t.Errorf("takes sum to %g, want 120", total)
	}
	if fromB := reply.Dense(2)[b.Principal()]; fromB > 40+1e-6 {
		t.Errorf("took %g from B, agreement cap is 40", fromB)
	}

	// The GRM's availability view reflects the allocation.
	avail, _, err = a.Capacities()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs((avail[a.Principal()]+avail[b.Principal()])-(180-120)) > 1e-6 {
		t.Errorf("remaining availability %v, want total 60", avail)
	}

	// Fresh reports overwrite the view.
	if err := b.Report(80); err != nil {
		t.Fatal(err)
	}
	avail, _, err = a.Capacities()
	if err != nil {
		t.Fatal(err)
	}
	if avail[b.Principal()] != 80 {
		t.Errorf("report did not overwrite availability: %v", avail)
	}
}

func TestAllocateInsufficient(t *testing.T) {
	_, addr := startServer(t, core.Config{})
	a, err := Dial(addr, "A", 10)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := a.Allocate(50); err == nil || !strings.Contains(err.Error(), "insufficient") {
		t.Errorf("want insufficient-capacity error, got %v", err)
	}
}

func TestTransitiveAllocationOverNetwork(t *testing.T) {
	// C -> B -> A chain (100% each): A can reach C's resources only
	// transitively. Run one GRM at level 2 and one at level 1.
	for _, tc := range []struct {
		level   int
		wantErr bool
	}{{2, false}, {1, true}} {
		_, addr := startServer(t, core.Config{Level: tc.level})
		a, err := Dial(addr, "A", 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Dial(addr, "B", 0)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Dial(addr, "C", 30)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.ShareRelative(a.Principal(), 1); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ShareRelative(b.Principal(), 1); err != nil {
			t.Fatal(err)
		}
		_, err = a.Allocate(20)
		if tc.wantErr && err == nil {
			t.Errorf("level %d: transitive allocation should fail", tc.level)
		}
		if !tc.wantErr && err != nil {
			t.Errorf("level %d: %v", tc.level, err)
		}
		a.Close()
		b.Close()
		c.Close()
	}
}

func TestRevokeAgreement(t *testing.T) {
	_, addr := startServer(t, core.Config{})
	a, err := Dial(addr, "A", 10)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(addr, "B", 90)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ticket, err := b.ShareRelative(a.Principal(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Allocate(50); err != nil {
		t.Fatalf("allocation with agreement: %v", err)
	}
	if err := b.Report(90); err != nil {
		t.Fatal(err)
	}
	if err := a.Report(10); err != nil {
		t.Fatal(err)
	}
	if err := a.Revoke(ticket); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Allocate(50); err == nil {
		t.Error("allocation should fail after revocation")
	}
}

func TestAbsoluteShareOverNetwork(t *testing.T) {
	_, addr := startServer(t, core.Config{})
	a, err := Dial(addr, "A", 5)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(addr, "B", 100)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.ShareAbsolute(a.Principal(), 25); err != nil {
		t.Fatal(err)
	}
	_, caps, err := a.Capacities()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(caps[a.Principal()]-30) > 1e-9 {
		t.Errorf("capacity of A = %g, want 5 + 25", caps[a.Principal()])
	}
}

func TestProtocolErrors(t *testing.T) {
	_, addr := startServer(t, core.Config{})
	a, err := Dial(addr, "A", 10)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := a.ShareRelative(99, 0.5); err == nil {
		t.Error("share with unknown principal accepted")
	}
	if _, err := a.ShareRelative(a.Principal(), 0.5); err == nil {
		t.Error("self-share accepted")
	}
	if _, err := a.ShareRelative(a.Principal()+1, 2); err == nil {
		t.Error("fraction > 1 accepted")
	}
	if err := a.Revoke(42); err == nil {
		t.Error("unknown ticket revoked")
	}
	if err := a.Report(-1); err == nil {
		t.Error("negative report accepted")
	}
	if _, err := a.Allocate(-1); err == nil {
		t.Error("negative allocation accepted")
	}
	if _, err := Dial(addr, "", 10); err == nil {
		t.Error("empty name accepted")
	}
}

// TestNoPrincipalsErrorCrossesWire exercises the typed-error path: a
// planner request before any principal registers must come back as
// CodeNoPrincipals and rehydrate to ErrNoPrincipals on the client side,
// distinguishable from generic failures via errors.Is.
func TestNoPrincipalsErrorCrossesWire(t *testing.T) {
	_, addr := startServer(t, core.Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w, err := newBinWire(conn, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	resp, err := w.do(&Request{Caps: &CapsRequest{}}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err == "" || resp.Code != CodeNoPrincipals {
		t.Fatalf("caps before register: got Err=%q Code=%d, want CodeNoPrincipals", resp.Err, resp.Code)
	}
	werr := wireError(resp)
	if !errors.Is(werr, ErrNoPrincipals) {
		t.Errorf("wireError(%+v) = %v, not errors.Is ErrNoPrincipals", resp, werr)
	}
	// A generic protocol error must stay CodeGeneric.
	resp, err = w.do(&Request{Alloc: &AllocRequest{Principal: 99, Amount: 1}}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err == "" || resp.Code != CodeGeneric {
		t.Fatalf("alloc for unknown principal: got Err=%q Code=%d, want CodeGeneric", resp.Err, resp.Code)
	}
	if errors.Is(wireError(resp), ErrNoPrincipals) {
		t.Error("generic error rehydrated as ErrNoPrincipals")
	}
}

func TestConcurrentLRMs(t *testing.T) {
	_, addr := startServer(t, core.Config{})
	hub, err := Dial(addr, "hub", 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	const n = 8
	lrms := make([]*LRM, n)
	for i := range lrms {
		l, err := Dial(addr, fmt.Sprintf("node%d", i), 100)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		lrms[i] = l
		if _, err := hub.ShareRelative(l.Principal(), 1.0/n); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, n*20)
	for _, l := range lrms {
		wg.Add(1)
		go func(l *LRM) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := l.Report(100); err != nil {
					errs <- err
					return
				}
				if _, err := l.Allocate(5); err != nil {
					errs <- err
					return
				}
			}
		}(l)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent LRM: %v", err)
	}
}

func TestFederationBorrow(t *testing.T) {
	// Parent GRM federates two child GRMs. Child 1's cluster is empty;
	// its LRM borrows through the parent from child 2's cluster.
	_, parentAddr := startServer(t, core.Config{})

	child1, child1Addr := startServer(t, core.Config{})
	child2, child2Addr := startServer(t, core.Config{})

	// Local LRMs.
	poor, err := Dial(child1Addr, "poor", 5)
	if err != nil {
		t.Fatal(err)
	}
	defer poor.Close()
	rich, err := Dial(child2Addr, "rich", 500)
	if err != nil {
		t.Fatal(err)
	}
	defer rich.Close()

	// Attach both children to the parent and wire the inter-cluster
	// agreement: cluster2 shares 60% with cluster1.
	if err := child1.AttachParent(parentAddr, "cluster1"); err != nil {
		t.Fatal(err)
	}
	defer child1.DetachParent()
	if err := child2.AttachParent(parentAddr, "cluster2"); err != nil {
		t.Fatal(err)
	}
	defer child2.DetachParent()
	if _, err := child2.Parent().ShareRelative(child1.Parent().Principal(), 0.6); err != nil {
		t.Fatal(err)
	}

	// 5 local + up to 300 via the federation.
	reply, err := poor.Allocate(100)
	if err != nil {
		t.Fatalf("federated allocation: %v", err)
	}
	var total float64
	for _, take := range reply.Takes {
		total += take
	}
	if math.Abs(total-100) > 1e-6 {
		t.Errorf("takes sum to %g, want 100", total)
	}

	// Beyond the inter-cluster agreement the parent refuses.
	if err := poor.Report(5); err != nil {
		t.Fatal(err)
	}
	if err := child1.ReportUpstream(); err != nil {
		t.Fatal(err)
	}
	if _, err := poor.Allocate(5000); err == nil {
		t.Error("allocation beyond federation capacity should fail")
	}
}

func TestAttachParentTwice(t *testing.T) {
	_, parentAddr := startServer(t, core.Config{})
	child, childAddr := startServer(t, core.Config{})
	l, err := Dial(childAddr, "n", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := child.AttachParent(parentAddr, "c"); err != nil {
		t.Fatal(err)
	}
	defer child.DetachParent()
	if err := child.AttachParent(parentAddr, "c2"); err == nil {
		t.Error("second AttachParent accepted")
	}
	if err := child.ReportUpstream(); err != nil {
		t.Errorf("ReportUpstream: %v", err)
	}
}

func TestServerAddr(t *testing.T) {
	s, addr := startServer(t, core.Config{})
	// Serve runs on its own goroutine; wait for it to store the listener.
	deadline := time.Now().Add(2 * time.Second)
	for s.Addr() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.Addr() == nil || s.Addr().String() != addr {
		t.Errorf("Addr = %v, want %s", s.Addr(), addr)
	}
}

func TestLoadSnapshot(t *testing.T) {
	snap := &agreement.Snapshot{
		Principals: []agreement.PrincipalSnapshot{{Name: "A"}, {Name: "B"}},
		Resources: []agreement.ResourceSnapshot{
			{Name: "rA", Type: "general", Owner: "A", Capacity: 100},
			{Name: "rB", Type: "general", Owner: "B", Capacity: 40},
		},
		Agreements: []agreement.AgreementSnapshot{{From: "A", To: "B", Fraction: 0.5}},
	}
	s := NewServer(core.Config{}, nil)
	if err := s.LoadSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })

	// B attaches under its declared name and immediately benefits from
	// the preloaded agreement.
	b, err := Dial(l.Addr().String(), "B", 40)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	_, caps, err := b.Capacities()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(caps[b.Principal()]-90) > 1e-9 {
		t.Errorf("capacity of B = %g, want 40 + 50 (preloaded agreement)", caps[b.Principal()])
	}

	// A new, undeclared LRM can still register.
	c, err := Dial(l.Addr().String(), "C", 7)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	names, err := c.Peers()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Errorf("peers = %v, want A, B, C", names)
	}

	// Loading over a live community is rejected.
	if err := s.LoadSnapshot(snap); err == nil {
		t.Error("second LoadSnapshot accepted")
	}
}

func TestLoadSnapshotRejectsInvalid(t *testing.T) {
	// A row summing past 100% without a declared overdraft violates the
	// paper's Σ_k S_ik ≤ 1 restriction; the GRM must refuse to start on it.
	snap := &agreement.Snapshot{
		Principals: []agreement.PrincipalSnapshot{{Name: "A"}, {Name: "B"}},
		Resources: []agreement.ResourceSnapshot{
			{Name: "rA", Type: "general", Owner: "A", Capacity: 100},
			{Name: "rB", Type: "general", Owner: "B", Capacity: 40},
		},
		Agreements: []agreement.AgreementSnapshot{
			{From: "A", To: "B", Fraction: 0.7},
			{From: "A", To: "B", Fraction: 0.6},
		},
	}
	s := NewServer(core.Config{}, nil)
	err := s.LoadSnapshot(snap)
	if err == nil {
		t.Fatal("LoadSnapshot accepted an overcommitted snapshot")
	}
	if !strings.Contains(err.Error(), "row-sum") {
		t.Errorf("error %q does not name the violated invariant", err)
	}

	// Declaring the overdraft downgrades the finding to a warning and the
	// snapshot loads.
	snap.Overdraft = true
	if err := s.LoadSnapshot(snap); err != nil {
		t.Fatalf("LoadSnapshot rejected a declared overdraft: %v", err)
	}
}

func TestRegisterSameNameRebinds(t *testing.T) {
	_, addr := startServer(t, core.Config{})
	a1, err := Dial(addr, "siteA", 100)
	if err != nil {
		t.Fatal(err)
	}
	a1.Close() // site restarts...
	a2, err := Dial(addr, "siteA", 80)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	if a1.Principal() != a2.Principal() {
		t.Errorf("restarted LRM got a new principal: %d vs %d", a1.Principal(), a2.Principal())
	}
	avail, _, err := a2.Capacities()
	if err != nil {
		t.Fatal(err)
	}
	if avail[a2.Principal()] != 80 {
		t.Errorf("availability after re-register = %g, want 80", avail[a2.Principal()])
	}
}

func TestGarbageBytesDoNotKillServer(t *testing.T) {
	_, addr := startServer(t, core.Config{})
	// Throw garbage at the server on a raw connection.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte("this is not a hello at all \x00\xff\x13\x37")); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	// The server must still accept and serve well-formed clients.
	a, err := Dial(addr, "A", 10)
	if err != nil {
		t.Fatalf("server died after garbage input: %v", err)
	}
	defer a.Close()
	if err := a.Report(10); err != nil {
		t.Errorf("report after garbage: %v", err)
	}
}

func TestAbruptClientDisconnect(t *testing.T) {
	_, addr := startServer(t, core.Config{})
	for i := 0; i < 5; i++ {
		l, err := Dial(addr, fmt.Sprintf("flaky%d", i), 10)
		if err != nil {
			t.Fatal(err)
		}
		// Kill the connection without any protocol goodbye.
		l.mu.Lock()
		l.w.close()
		l.mu.Unlock()
	}
	survivor, err := Dial(addr, "steady", 10)
	if err != nil {
		t.Fatalf("server unusable after disconnects: %v", err)
	}
	defer survivor.Close()
	names, err := survivor.Peers()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 6 {
		t.Errorf("peers = %v, want 6 entries", names)
	}
}

func TestServerCloseUnblocksServe(t *testing.T) {
	s := NewServer(core.Config{}, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()
	// Give Serve a moment to start accepting, then close.
	time.Sleep(10 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Error("Serve returned nil after Close; want net.ErrClosed")
		}
	case <-time.After(2 * time.Second):
		t.Error("Serve did not return after Close")
	}
}

func TestLeaseRelease(t *testing.T) {
	_, addr := startServer(t, core.Config{})
	a, err := Dial(addr, "A", 100)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(addr, "B", 80)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.ShareRelative(a.Principal(), 0.5); err != nil {
		t.Fatal(err)
	}

	reply, err := a.Allocate(120)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Lease == 0 {
		t.Fatal("no lease token in allocation reply")
	}
	avail, _, err := a.Capacities()
	if err != nil {
		t.Fatal(err)
	}
	if got := avail[a.Principal()] + avail[b.Principal()]; math.Abs(got-60) > 1e-6 {
		t.Fatalf("availability during lease = %g, want 60", got)
	}

	if err := a.Release(reply.Lease); err != nil {
		t.Fatal(err)
	}
	avail, _, err = a.Capacities()
	if err != nil {
		t.Fatal(err)
	}
	if avail[a.Principal()] != 100 || avail[b.Principal()] != 80 {
		t.Errorf("availability after release = %v, want [100 80]", avail)
	}

	if err := a.Release(reply.Lease); err == nil {
		t.Error("double release accepted")
	}
	if err := a.Release(999); err == nil {
		t.Error("bogus lease released")
	}
}

func TestReleaseCappedByReports(t *testing.T) {
	_, addr := startServer(t, core.Config{})
	a, err := Dial(addr, "A", 100)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	reply, err := a.Allocate(40)
	if err != nil {
		t.Fatal(err)
	}
	// The site shrinks while the lease is out.
	if err := a.Report(10); err != nil {
		t.Fatal(err)
	}
	if err := a.Release(reply.Lease); err != nil {
		t.Fatal(err)
	}
	avail, _, err := a.Capacities()
	if err != nil {
		t.Fatal(err)
	}
	// Release may not inflate availability beyond the best known capacity.
	if avail[a.Principal()] > 100+1e-9 {
		t.Errorf("availability %g exceeds reported capacity", avail[a.Principal()])
	}
}

func TestStatus(t *testing.T) {
	srv, addr := startServer(t, core.Config{})
	a, err := Dial(addr, "A", 100)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(addr, "B", 50)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.ShareRelative(a.Principal(), 0.4); err != nil {
		t.Fatal(err)
	}
	reply, err := a.Allocate(30)
	if err != nil {
		t.Fatal(err)
	}

	st, err := srv.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Principals) != 2 || st.Leases != 1 || st.Agreements != 1 {
		t.Errorf("status = %+v", st)
	}
	if st.Principals[a.Principal()].Available != 70 {
		t.Errorf("available(A) = %g, want 70", st.Principals[a.Principal()].Available)
	}
	if err := a.Release(reply.Lease); err != nil {
		t.Fatal(err)
	}
	st, err = srv.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Leases != 0 {
		t.Errorf("leases after release = %d", st.Leases)
	}
}

func TestStatusEmptyServer(t *testing.T) {
	srv := NewServer(core.Config{}, nil)
	st, err := srv.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Principals) != 0 || st.Leases != 0 {
		t.Errorf("empty status = %+v", st)
	}
}

func TestStatusHTTP(t *testing.T) {
	srv, addr := startServer(t, core.Config{})
	a, err := Dial(addr, "A", 10)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	hs := httptest.NewServer(srv)
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status code %d", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Principals) != 1 || st.Principals[0].Name != "A" {
		t.Errorf("decoded status = %+v", st)
	}

	post, err := http.Post(hs.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status code %d, want 405", post.StatusCode)
	}
}

// TestChurnKeepsOnePlannerLineage drives the churn cycle — share, alloc,
// release, revoke, report — a hundred times and requires that the planner
// built for the first allocation is the only one ever built: shares and
// revokes both patch it in place. Every cycle's allocation needs the
// cycle's own share, and the attempt after each revoke must be refused,
// so a patch that failed to remove the entry could not pass either.
func TestChurnKeepsOnePlannerLineage(t *testing.T) {
	srv, addr := startServer(t, core.Config{})
	a, err := Dial(addr, "A", 10)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(addr, "B", 90)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for cycle := 0; cycle < 100; cycle++ {
		// Alternate relative and absolute agreements; both reach 40 units.
		var ticket int
		if cycle%2 == 0 {
			ticket, err = b.ShareRelative(a.Principal(), 0.5)
		} else {
			ticket, err = b.ShareAbsolute(a.Principal(), 45)
		}
		if err != nil {
			t.Fatalf("cycle %d: share: %v", cycle, err)
		}
		reply, err := a.Allocate(50)
		if err != nil {
			t.Fatalf("cycle %d: allocate under the agreement: %v", cycle, err)
		}
		if err := a.Release(reply.Lease); err != nil {
			t.Fatalf("cycle %d: release: %v", cycle, err)
		}
		if err := a.Revoke(ticket); err != nil {
			t.Fatalf("cycle %d: revoke: %v", cycle, err)
		}
		if _, err := a.Allocate(50); err == nil {
			t.Fatalf("cycle %d: allocation beyond own capacity accepted after the revoke", cycle)
		}
		if err := a.Report(10); err != nil {
			t.Fatalf("cycle %d: report: %v", cycle, err)
		}
	}
	srv.mu.Lock()
	builds, live := srv.plannerBuilds, srv.planner != nil
	srv.mu.Unlock()
	if builds != 1 || !live {
		t.Fatalf("planner built %d times over 100 churn cycles (live=%v), want one lineage", builds, live)
	}
}

// TestRefusedPlannerBuildIsRemembered wires a graph past the exact-closure
// budget (a complete dozen whose rows also reach a chain of five, 17 in
// all: past the subset DP's table, and a dozen's chains cannot be
// enumerated) and allocates twice: the refused build is attempted once
// and both requests get its error. Revoking the share that joins the two
// parts is an agreement mutation: the refusal is forgotten, and the next
// allocation builds a planner for the graph that is left.
func TestRefusedPlannerBuildIsRemembered(t *testing.T) {
	srv, addr := startServer(t, core.Config{})
	lrms := make([]*LRM, 17)
	for i := range lrms {
		l, err := Dial(addr, fmt.Sprintf("p%d", i), 10)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		lrms[i] = l
	}
	share := func(from, to int, fraction float64) int {
		t.Helper()
		ticket, err := lrms[from].ShareRelative(lrms[to].Principal(), fraction)
		if err != nil {
			t.Fatalf("share %d->%d: %v", from, to, err)
		}
		return ticket
	}
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			if i != j {
				share(i, j, 0.05)
			}
		}
	}
	for i := 12; i+1 < 17; i++ {
		share(i, i+1, 0.5)
	}
	bridge := share(0, 12, 0.05)

	_, err1 := lrms[3].Allocate(12)
	_, err2 := lrms[4].Allocate(12)
	if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
		t.Fatalf("allocations on a refused graph: %v / %v, want the same refusal twice", err1, err2)
	}
	if !strings.Contains(err1.Error(), "would exceed 50000000 steps") {
		t.Fatalf("refusal %q does not name the closure budget", err1)
	}
	srv.mu.Lock()
	builds := srv.plannerBuilds
	srv.mu.Unlock()
	if builds != 1 {
		t.Fatalf("two allocations on a refused graph attempted %d planner builds, want 1", builds)
	}

	if err := lrms[0].Revoke(bridge); err != nil {
		t.Fatal(err)
	}
	if _, err := lrms[3].Allocate(12); err != nil {
		t.Fatalf("allocation after the revoke brought the graph back under the budget: %v", err)
	}
	srv.mu.Lock()
	builds = srv.plannerBuilds
	srv.mu.Unlock()
	if builds != 2 {
		t.Fatalf("%d planner builds after the revoke, want 2", builds)
	}
}

// TestRevokeBesideVirtualCurrencyRebuilds pins the fallback: with a
// virtual currency in the books a cell may collect routed contributions,
// so a revoke discards the planner and the next plan rebuilds it.
func TestRevokeBesideVirtualCurrencyRebuilds(t *testing.T) {
	srv, addr := startServer(t, core.Config{})
	a, err := Dial(addr, "A", 10)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(addr, "B", 90)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	srv.mu.Lock()
	_, err = srv.sys.NewVirtualCurrency("B-side", srv.sys.CurrencyOf(1), 100, 1000)
	srv.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	ticket, err := b.ShareRelative(a.Principal(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Allocate(20); err != nil {
		t.Fatal(err)
	}
	if err := a.Revoke(ticket); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	discarded := srv.planner == nil
	srv.mu.Unlock()
	if !discarded {
		t.Fatal("revoke beside a virtual currency kept the planner")
	}
	if _, err := a.Allocate(50); err == nil {
		t.Error("allocation should fail after revocation")
	}
}
