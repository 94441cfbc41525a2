package grm

import (
	"errors"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grm/faultnet"
	"repro/internal/store"
	"repro/internal/vclock"
)

// startServerWith launches a GRM after applying setup (lease TTLs,
// timeouts, ...) to the not-yet-serving server.
func startServerWith(t *testing.T, cfg core.Config, setup func(*Server)) (*Server, string) {
	t.Helper()
	s := NewServer(cfg, nil)
	if setup != nil {
		setup(s)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	return s, l.Addr().String()
}

func TestCloseTwice(t *testing.T) {
	s, _ := startServer(t, core.Config{})
	err1 := s.Close()
	err2 := s.Close() // must not panic on the closed channel
	if err1 != err2 {
		t.Errorf("repeated Close returned a different error: %v vs %v", err1, err2)
	}
}

func TestConcurrentClose(t *testing.T) {
	s, _ := startServer(t, core.Config{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Close()
		}()
	}
	wg.Wait()
}

func TestCloseSeversLiveConnections(t *testing.T) {
	s, addr := startServer(t, core.Config{})
	l, err := Dial(addr, "lingering", 10)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// The LRM sits idle on an open connection; Close must not wait for it
	// to hang up voluntarily.
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hangs while an idle LRM connection is open")
	}
}

func TestConcurrentAttachParent(t *testing.T) {
	_, parentAddr := startServer(t, core.Config{})
	child, _ := startServer(t, core.Config{})

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = child.AttachParent(parentAddr, "cluster")
		}(i)
	}
	wg.Wait()
	var ok int
	for _, err := range errs {
		if err == nil {
			ok++
		}
	}
	if ok != 1 {
		t.Fatalf("%d AttachParent calls succeeded, want exactly 1", ok)
	}
	// The losers must not have leaked registrations at the parent.
	names, err := child.Parent().Peers()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Errorf("parent sees %d principals (%v), want 1 — losers leaked connections", len(names), names)
	}
	child.DetachParent()
}

func TestClientTimeoutOnInjectedLatency(t *testing.T) {
	_, addr := startServer(t, core.Config{})
	faults := faultnet.NewFaults()
	cfg := DialConfig{
		Timeout:  100 * time.Millisecond,
		RetryMax: 0,
		Dialer:   faultnet.Dialer(faults, nil),
	}
	l, err := DialWithConfig(addr, "slow", 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// Latency far beyond the deadline: the operation must surface a
	// timeout error in bounded time, not hang.
	faults.SetLatency(500 * time.Millisecond)
	start := time.Now()
	err = l.Ping()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("operation under injected latency succeeded")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("want timeout error, got %v", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("operation took %v; deadline did not bound it", elapsed)
	}
}

func TestClientTimeoutOnDroppedWrites(t *testing.T) {
	_, addr := startServer(t, core.Config{})
	faults := faultnet.NewFaults()
	cfg := DialConfig{
		Timeout:  100 * time.Millisecond,
		RetryMax: 0,
		Dialer:   faultnet.Dialer(faults, nil),
	}
	l, err := DialWithConfig(addr, "muted", 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	faults.SetDropWrites(true)
	start := time.Now()
	if err := l.Report(5); err == nil {
		t.Fatal("report with dropped writes succeeded")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("report took %v; read deadline did not fire", elapsed)
	}
}

func TestReconnectReRegistersAndReplaysReport(t *testing.T) {
	srv, addr := startServer(t, core.Config{})
	faults := faultnet.NewFaults()
	conns := make(chan *faultnet.Conn, 8)
	cfg := DialConfig{
		Timeout:  2 * time.Second,
		RetryMax: 3,
		Backoff:  5 * time.Millisecond,
		Dialer:   faultnet.Dialer(faults, conns),
	}
	l, err := DialWithConfig(addr, "phoenix", 100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	first := <-conns
	principal := l.Principal()

	if err := l.Report(33); err != nil {
		t.Fatal(err)
	}
	// Kill the transport out from under the client.
	first.Kill()

	// The next operation reconnects, re-registers under the same name,
	// and replays the 33-unit report before executing.
	if err := l.Ping(); err != nil {
		t.Fatalf("ping after killed connection: %v", err)
	}
	if got := l.Principal(); got != principal {
		t.Errorf("reconnect changed principal: %d -> %d", principal, got)
	}
	select {
	case <-conns: // the reconnect's fresh connection
	default:
		t.Error("no second connection was dialed")
	}
	st, err := srv.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Principals) != 1 {
		t.Fatalf("server sees %d principals after reconnect, want 1", len(st.Principals))
	}
	if st.Principals[principal].Available != 33 {
		t.Errorf("availability after reconnect = %g, want the replayed 33", st.Principals[principal].Available)
	}
}

func TestReconnectGivesUpAfterRetryMax(t *testing.T) {
	s, addr := startServer(t, core.Config{})
	l, err := DialWithConfig(addr, "orphan", 10, DialConfig{
		Timeout:  200 * time.Millisecond,
		RetryMax: 2,
		Backoff:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Take the whole server down; every reconnect attempt must fail and
	// the operation must give up in bounded time.
	s.Close()
	start := time.Now()
	if err := l.Ping(); err == nil {
		t.Fatal("ping against a dead server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("gave up after %v; retry budget did not bound the failure", elapsed)
	}
}

func TestOperationsAfterCloseFail(t *testing.T) {
	_, addr := startServer(t, core.Config{})
	l, err := Dial(addr, "done", 10)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := l.Ping(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("ping after Close = %v, want net.ErrClosed (no reconnect)", err)
	}
}

func TestLeaseTTLReaperReturnsTakes(t *testing.T) {
	// A virtual clock drives the whole lease lifecycle: expiry happens
	// exactly when the test advances past the TTL, never because the test
	// machine paused — these tests used to poll wall time and flake under
	// load.
	vc := vclock.NewVirtual(time.Unix(0, 0))
	srv, addr := startServerWith(t, core.Config{}, func(s *Server) {
		s.SetClock(vc)
		s.SetLeaseTTL(time.Minute)
	})
	a, err := Dial(addr, "A", 100)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	reply, err := a.Allocate(40)
	if err != nil {
		t.Fatal(err)
	}
	if reply.TTL != time.Minute {
		t.Errorf("lease TTL in reply = %v, want 1m", reply.TTL)
	}
	avail, _, err := a.Capacities()
	if err != nil {
		t.Fatal(err)
	}
	if avail[a.Principal()] != 60 {
		t.Fatalf("availability during lease = %g, want 60", avail[a.Principal()])
	}

	// Just short of the TTL the lease must survive a reap pass.
	vc.Advance(59 * time.Second)
	if n := srv.Reap(); n != 0 {
		t.Fatalf("reaped %d leases before expiry", n)
	}
	// Never released: crossing the TTL must reclaim it.
	vc.Advance(2 * time.Second)
	srv.Reap()
	st, err := srv.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Leases != 0 {
		t.Fatalf("lease count after expiry = %d, want 0", st.Leases)
	}
	avail, _, err = a.Capacities()
	if err != nil {
		t.Fatal(err)
	}
	if avail[a.Principal()] != 100 {
		t.Errorf("availability after expiry = %g, want 100", avail[a.Principal()])
	}
	if err := a.Release(reply.Lease); err == nil {
		t.Error("releasing an expired lease succeeded")
	}
}

func TestLeaseRenewKeepsLeaseAlive(t *testing.T) {
	vc := vclock.NewVirtual(time.Unix(0, 0))
	srv, addr := startServerWith(t, core.Config{}, func(s *Server) {
		s.SetClock(vc)
		s.SetLeaseTTL(time.Minute)
	})
	a, err := Dial(addr, "A", 100)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	reply, err := a.Allocate(40)
	if err != nil {
		t.Fatal(err)
	}
	// Renew at half-TTL intervals, far past the original expiry: the
	// lease must survive four full TTLs' worth of virtual time.
	for i := 0; i < 8; i++ {
		vc.Advance(30 * time.Second)
		srv.Reap()
		ttl, err := a.Renew(reply.Lease)
		if err != nil {
			t.Fatalf("renew %d: %v", i, err)
		}
		if ttl != time.Minute {
			t.Fatalf("renew TTL = %v, want 1m", ttl)
		}
	}
	st, err := srv.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Leases != 1 {
		t.Fatalf("lease count after renewals = %d, want 1", st.Leases)
	}
	// Stop renewing: crossing the TTL takes it.
	vc.Advance(2 * time.Minute)
	srv.Reap()
	st, err = srv.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Leases != 0 {
		t.Fatal("lease survived after renewals stopped")
	}
	if _, err := a.Renew(999); err == nil {
		t.Error("renewing an unknown lease succeeded")
	}
}

// availVector snapshots a server's availability per principal.
func availVector(t *testing.T, s *Server) []float64 {
	t.Helper()
	st, err := s.Status()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(st.Principals))
	for i, p := range st.Principals {
		out[i] = p.Available
	}
	return out
}

func sameVector(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-6 {
			return false
		}
	}
	return true
}

func TestFederationRepaysBorrowOnRelease(t *testing.T) {
	parentSrv, parentAddr := startServer(t, core.Config{})
	child1, child1Addr := startServer(t, core.Config{})
	child2, child2Addr := startServer(t, core.Config{})

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

	before := availVector(t, parentSrv)

	// 5 local + 95 borrowed through the federation.
	reply, err := poor.Allocate(100)
	if err != nil {
		t.Fatalf("federated allocation: %v", err)
	}
	during := availVector(t, parentSrv)
	if sameVector(before, during) {
		t.Fatal("parent availability unchanged during borrow; federation path not exercised")
	}

	// Releasing the child lease must repay the parent in the same call.
	if err := poor.Release(reply.Lease); err != nil {
		t.Fatal(err)
	}
	after := availVector(t, parentSrv)
	if !sameVector(before, after) {
		t.Errorf("parent availability after child release = %v, want pre-borrow %v", after, before)
	}
}

// shrunkBorrow is what borrowWhileCapacityShrinks leaves behind.
type shrunkBorrow struct {
	parent, child *Server
	wal           *store.MemLog // the child's journal
	before        []float64     // parent availability before the request
	poor          *LRM
	reply         *AllocReply
	err           error
}

// borrowWhileCapacityShrinks runs a 100-unit request for a principal that
// holds 5 on a child GRM: the child borrows the 95 it is short over a
// slowed parent link, and while that round trip is on the wire the
// principal's availability is reported down to 0, so the credited plan
// comes up 5 short and the child must repay and borrow 100. The sibling
// cluster shares 0.6 of richCapacity with the child, which decides
// whether the parent can cover that.
func borrowWhileCapacityShrinks(t *testing.T, richCapacity float64) *shrunkBorrow {
	t.Helper()
	parentSrv, parentAddr := startServer(t, core.Config{})
	wal := store.NewMemLog()
	child1, child1Addr := startServerWith(t, core.Config{}, func(s *Server) { s.SetLog(wal) })
	child2, child2Addr := startServer(t, core.Config{})

	poor, err := Dial(child1Addr, "poor", 5)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { poor.Close() })
	// A second local client shrinks poor's availability while the borrow
	// is in flight.
	sab, err := Dial(child1Addr, "sab", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sab.Close() })
	rich, err := Dial(child2Addr, "rich", richCapacity)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rich.Close() })

	// Slow the child1->parent link so the borrow round trip leaves a wide
	// window in which child1's local state can change under it.
	linkFaults := faultnet.NewFaults()
	linkCfg := DefaultDialConfig()
	linkCfg.Dialer = faultnet.Dialer(linkFaults, nil)
	if err := child1.AttachParentConfig(parentAddr, "cluster1", linkCfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { child1.DetachParent() })
	if err := child2.AttachParent(parentAddr, "cluster2"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { child2.DetachParent() })
	if _, err := child2.Parent().ShareRelative(child1.Parent().Principal(), 0.6); err != nil {
		t.Fatal(err)
	}

	out := &shrunkBorrow{parent: parentSrv, child: child1, wal: wal, poor: poor, before: availVector(t, parentSrv)}
	linkFaults.SetLatency(300 * time.Millisecond)
	batches := child1.mBatches.Value()
	done := make(chan struct{})
	go func() {
		defer close(done)
		out.reply, out.err = poor.Allocate(100)
	}()
	// Once the request's first batch has run, its borrow is held up on the
	// slow wire; the report below lands well inside that delay.
	for deadline := time.Now().Add(10 * time.Second); child1.mBatches.Value() == batches; {
		if time.Now().After(deadline) {
			t.Fatal("allocation never reached a batch")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := sab.roundTrip(&Request{Report: &ReportRequest{Principal: poor.Principal(), Available: 0}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("allocation never returned")
	}
	linkFaults.SetLatency(0)
	return out
}

// journaled counts the records of one kind in a child's journal.
func journaled(t *testing.T, wal *store.MemLog, kind store.Kind) int {
	t.Helper()
	n := 0
	err := wal.Replay(func(rec *store.Record) error {
		if rec.Kind == kind {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestFederationBorrowSurvivesShrinkingCapacity: local capacity shrinks
// during the parent round trip and the parent can cover the larger
// deficit, so the request is granted on a second borrow and the first is
// repaid.
func TestFederationBorrowSurvivesShrinkingCapacity(t *testing.T) {
	b := borrowWhileCapacityShrinks(t, 500)
	if b.err != nil {
		t.Fatalf("allocation refused although the parent could cover the larger deficit: %v", b.err)
	}
	if borrows, repays := journaled(t, b.wal, store.KindBorrow), journaled(t, b.wal, store.KindRepay); borrows != 2 || repays != 1 {
		t.Fatalf("child journaled %d borrows and %d repayments, want 2 and 1 (capacity did not shrink under the first borrow)", borrows, repays)
	}

	// The parent holds exactly one lease, for the final amount.
	b.parent.mu.Lock()
	var parentLease int
	var lent float64
	for token, le := range b.parent.leases {
		parentLease = token
		for _, take := range le.takes {
			lent += take
		}
	}
	parentLeases := len(b.parent.leases)
	b.parent.mu.Unlock()
	if parentLeases != 1 || math.Abs(lent-100) > 1e-6 {
		t.Fatalf("parent holds %d leases lending %g, want 1 lending 100", parentLeases, lent)
	}
	// The leaf's borrow balance agrees with the parent's books.
	st, err := b.child.Status()
	if err != nil {
		t.Fatal(err)
	}
	want := []BorrowBalance{{ParentLease: parentLease, Amount: lent}}
	if got := st.Federation.Borrows; len(got) != 1 || got[0] != want[0] {
		t.Fatalf("child borrow balance = %+v, want %+v", got, want)
	}

	if err := b.poor.Release(b.reply.Lease); err != nil {
		t.Fatal(err)
	}
	if after := availVector(t, b.parent); !sameVector(b.before, after) {
		t.Errorf("parent availability after release = %v, want pre-borrow %v", after, b.before)
	}
}

// TestFederationRepaysBorrowOnFailedRetry: local capacity shrinks during
// the parent round trip and the parent cannot cover the larger deficit
// (the 5 it holds for the cluster plus 0.6 of 155 is 98: enough for the
// first 95, not for the 100 asked for next), so the request fails and
// must leave the federation's books untouched.
func TestFederationRepaysBorrowOnFailedRetry(t *testing.T) {
	b := borrowWhileCapacityShrinks(t, 155)
	if b.err == nil {
		t.Fatal("allocation succeeded although the parent could not cover the deficit")
	}
	// The first borrow must have been granted and then returned, or the
	// repay path was never exercised.
	if borrows, repays := journaled(t, b.wal, store.KindBorrow), journaled(t, b.wal, store.KindRepay); borrows != 1 || repays != 1 {
		t.Fatalf("child journaled %d borrows and %d repayments, want 1 and 1: %v", borrows, repays, b.err)
	}
	// The repayment happens before alloc returns its error.
	if after := availVector(t, b.parent); !sameVector(b.before, after) {
		t.Errorf("parent availability after failed retry = %v, want pre-borrow %v (borrow leaked)", after, b.before)
	}
	st, err := b.child.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Federation.Borrows) != 0 {
		t.Errorf("child still carries borrows %+v after the refusal", st.Federation.Borrows)
	}
}

// TestCloseRepaysQueuedBorrow: a request that is waiting in the admission
// queue with a borrowed credit when the server closes has the borrow
// repaid and the repayment journaled, so a recovered server owes nothing.
func TestCloseRepaysQueuedBorrow(t *testing.T) {
	parentSrv, parentAddr := startServer(t, core.Config{})
	donor, err := Dial(parentAddr, "donor", 500)
	if err != nil {
		t.Fatal(err)
	}
	defer donor.Close()

	// The child is never served and never asked to allocate, so it has no
	// scheduler: a job put on its queue stays there until Close.
	wal := store.NewMemLog()
	child := NewServer(core.Config{}, nil)
	child.SetLog(wal)
	if resp := child.dispatch(&Request{Register: &RegisterRequest{Name: "poor", Capacity: 5}}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	if err := child.AttachParent(parentAddr, "cluster"); err != nil {
		t.Fatal(err)
	}
	defer child.DetachParent()
	if _, err := donor.ShareRelative(child.Parent().Principal(), 0.6); err != nil {
		t.Fatal(err)
	}
	before := availVector(t, parentSrv)

	// The step processBatch hands a short request to: borrow the 95 and
	// rejoin the queue.
	job := &allocJob{req: &AllocRequest{Principal: 0, Amount: 100}, resp: make(chan *Response, 1), capacity: 5}
	child.wg.Add(1)
	child.settle(job, child.parent, nil)
	if len(child.allocQ) != 1 || job.parentLease == 0 {
		t.Fatalf("job not queued with a credit: queue %d, parent lease %d", len(child.allocQ), job.parentLease)
	}
	if sameVector(before, availVector(t, parentSrv)) {
		t.Fatal("parent availability unchanged during the borrow")
	}

	if err := child.Close(); err != nil {
		t.Fatal(err)
	}
	if resp := <-job.resp; resp.Err == "" {
		t.Error("queued job was not refused at close")
	}
	if after := availVector(t, parentSrv); !sameVector(before, after) {
		t.Errorf("parent availability after close = %v, want pre-borrow %v (borrow leaked)", after, before)
	}
	if journaled(t, wal, store.KindRepay) != 1 {
		t.Error("the repayment was not journaled")
	}
	r := NewServer(core.Config{}, nil)
	if err := r.Recover(wal); err != nil {
		t.Fatal(err)
	}
	st, err := r.Status()
	if err != nil {
		t.Fatal(err)
	}
	if unresolved := r.UnresolvedBorrows(); len(unresolved) != 0 || len(st.Federation.Borrows) != 0 {
		t.Errorf("recovered server still owes: unresolved %v, borrows %+v", unresolved, st.Federation.Borrows)
	}
}

func TestServerIdleTimeoutDisconnectsQuietClients(t *testing.T) {
	_, addr := startServerWith(t, core.Config{}, func(s *Server) {
		s.SetTimeouts(80*time.Millisecond, time.Second)
	})
	// RetryMax 0: the client must observe the disconnect rather than
	// silently reconnect.
	l, err := DialWithConfig(addr, "sleepy", 10, DialConfig{Timeout: time.Second, RetryMax: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	time.Sleep(300 * time.Millisecond)
	if err := l.Ping(); err == nil {
		t.Error("server kept an idle connection past the idle timeout")
	}
	// With retries enabled the same situation self-heals.
	h, err := DialWithConfig(addr, "healer", 10, DialConfig{
		Timeout: time.Second, RetryMax: 3, Backoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	time.Sleep(300 * time.Millisecond)
	if err := h.Ping(); err != nil {
		t.Errorf("ping after idle disconnect with retries: %v", err)
	}
}

// TestAttachParentRefreshesAggregate is the regression test for the
// stale-aggregate attach: the cluster total is summed before the dial,
// so availability reported while the dial is in flight must be
// re-reported to the parent once attached, not silently lost.
func TestAttachParentRefreshesAggregate(t *testing.T) {
	_, paddr := startServer(t, core.Config{})
	child, caddr := startServer(t, core.Config{})

	leaf, err := Dial(caddr, "leaf", 10)
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()
	if err := leaf.Report(10); err != nil {
		t.Fatal(err)
	}

	// The dialer hook lands a fresh availability report in the window
	// between the aggregate snapshot and the registration at the parent.
	var once sync.Once
	cfg := DefaultDialConfig()
	cfg.Dialer = func(addr string) (net.Conn, error) {
		once.Do(func() {
			if err := leaf.Report(25); err != nil {
				t.Errorf("interleaved report: %v", err)
			}
		})
		return net.DialTimeout("tcp", addr, time.Second)
	}
	if err := child.AttachParentConfig(paddr, "cluster", cfg); err != nil {
		t.Fatal(err)
	}
	defer child.DetachParent()

	probe, err := Dial(paddr, "probe", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	names, err := probe.Peers()
	if err != nil {
		t.Fatal(err)
	}
	cluster := -1
	for i, name := range names {
		if name == "cluster" {
			cluster = i
		}
	}
	if cluster < 0 {
		t.Fatalf("cluster principal not registered at parent: %v", names)
	}
	avail, _, err := probe.Capacities()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(avail[cluster]-25) > 1e-9 {
		t.Fatalf("parent sees cluster availability %g, want the refreshed 25 (stale snapshot was 10)", avail[cluster])
	}
}
