package grm

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/grm/transport"
	"repro/internal/store"
	"repro/internal/vclock"
)

// parentLink is a child GRM's registration with a parent GRM, through
// which it borrows capacity from sibling clusters.
type parentLink struct {
	lrm *LRM
}

// front is what both server shapes put in front of their books: the
// listener, the serving lifecycle and the one parent link. A plain Server
// fronts itself; the shard router fronts its shards. Each book keeps its
// own parent pointer, read under its own mu by the allocation pipeline;
// the front sets those pointers and owns the link they share.
type front struct {
	tr    *transport.Server
	books []*Server

	// linkMu guards link, attaching and done. It is never held while a
	// book's mu is taken.
	linkMu    sync.Mutex
	link      *parentLink
	attaching bool // the attach reservation, held across the parent dial
	done      bool // Close has closed the link; no attach may publish another
}

// Serve accepts LRM connections on l until Close is called, starting
// every book's lease reaper (when a TTL is configured) and batch
// scheduler first. It always returns a non-nil error (net.ErrClosed after
// a clean shutdown).
func (f *front) Serve(l net.Listener) error {
	for _, b := range f.books {
		b.startBackground()
	}
	return f.tr.Serve(l)
}

// Addr returns the listener address (once Serve has been called).
func (f *front) Addr() net.Addr { return f.tr.Addr() }

// SetTimeouts configures per-connection deadlines: idle is the maximum
// quiet time between requests on an LRM connection (0 = unlimited), write
// the per-response write deadline (0 = none).
func (f *front) SetTimeouts(idle, write time.Duration) {
	f.tr.SetTimeouts(idle, write)
}

// SetLeaseTTL makes every lease granted from now on expire after ttl
// unless renewed or released; a background reaper per book (started by
// Serve) returns expired takes to the pool and repays any federation
// borrow. ttl <= 0 disables expiry. Call before Serve.
func (f *front) SetLeaseTTL(ttl time.Duration) {
	ttl = max(ttl, 0)
	var every time.Duration
	if ttl > 0 {
		every = max(ttl/4, time.Millisecond)
	}
	for _, b := range f.books {
		b.mu.Lock()
		b.leaseTTL, b.reapEvery = ttl, every
		b.mu.Unlock()
	}
}

// SetClock replaces the clock driving lease expiry and the reaper of
// every book. Injecting a vclock.Virtual makes the whole lease lifecycle
// deterministic: leases expire exactly when the test advances the clock
// past their TTL, never because a wall-clock sleep ran long. Call before
// Serve.
func (f *front) SetClock(c vclock.Clock) {
	for _, b := range f.books {
		b.mu.Lock()
		b.clock = c
		b.mu.Unlock()
	}
}

// AttachParent registers this GRM as an LRM of a parent GRM, realizing
// the paper's multi-level GRM architecture: the parent sees the whole
// cluster — every book behind this front — as one principal whose
// capacity is the cluster's aggregate free capacity, and every book
// borrows and repays through the one link (the LRM client is safe for
// concurrent use). Call after local LRMs have registered; ReportUpstream
// keeps the parent's view fresh.
func (f *front) AttachParent(addr, name string) error {
	return f.AttachParentConfig(addr, name, DefaultDialConfig())
}

// AttachParentConfig is AttachParent with explicit dial/retry behavior for
// the parent connection. A reservation is held across the dial so that
// concurrent attach attempts cannot each register at the parent and leak
// the loser's connection: exactly one caller dials, the rest fail fast.
func (f *front) AttachParentConfig(addr, name string, cfg DialConfig) error {
	f.linkMu.Lock()
	if f.link != nil || f.attaching {
		f.linkMu.Unlock()
		return fmt.Errorf("grm: parent already attached")
	}
	f.attaching = true
	f.linkMu.Unlock()

	link, err := f.dialParent(addr, name, cfg)
	f.linkMu.Lock()
	f.attaching = false
	if err == nil && f.done {
		err = fmt.Errorf("grm: attach parent: server closed")
	}
	if err == nil {
		f.link = link
	}
	f.linkMu.Unlock()
	if err != nil && link != nil {
		f.relink(link, nil)
		link.lrm.Close()
	}
	return err
}

// dialParent registers the books' aggregate at the parent and points
// every book at the new link. Availability reported while the dial was in
// flight is not in the registered capacity, so the aggregate is summed
// again once the books hold the link and re-reported when it has moved.
// On a failed refresh it returns the link with the error, for the caller
// to unwind.
func (f *front) dialParent(addr, name string, cfg DialConfig) (*parentLink, error) {
	total := f.aggregate()
	lrm, err := DialWithConfig(addr, name, total, cfg)
	if err != nil {
		return nil, fmt.Errorf("grm: attach parent: %w", err)
	}
	link := &parentLink{lrm: lrm}
	f.relink(nil, link)
	if fresh := f.aggregate(); fresh != total {
		if err := lrm.Report(fresh); err != nil {
			return link, fmt.Errorf("grm: attach parent: refresh aggregate: %w", err)
		}
	}
	return link, nil
}

// relink moves every book whose parent is from onto to.
func (f *front) relink(from, to *parentLink) {
	for _, b := range f.books {
		b.mu.Lock()
		if b.parent == from {
			b.parent = to
		}
		b.mu.Unlock()
	}
}

// aggregate sums the free capacity of every book.
func (f *front) aggregate() float64 {
	var total float64
	for _, b := range f.books {
		b.mu.Lock()
		for _, a := range b.avail {
			total += a
		}
		b.mu.Unlock()
	}
	return total
}

// Parent returns the LRM this GRM uses to talk to its parent (nil when
// not attached). The caller may use it to create inter-cluster sharing
// agreements with sibling clusters.
func (f *front) Parent() *LRM {
	f.linkMu.Lock()
	defer f.linkMu.Unlock()
	if f.link == nil {
		return nil
	}
	return f.link.lrm
}

// ReportUpstream sends the cluster's current aggregate free capacity to
// the parent GRM as one report.
func (f *front) ReportUpstream() error {
	f.linkMu.Lock()
	link := f.link
	f.linkMu.Unlock()
	if link == nil {
		return fmt.Errorf("grm: no parent attached")
	}
	return link.lrm.Report(f.aggregate())
}

// DetachParent closes the parent connection. Leases that borrowed through
// the link keep a reference to it, so repayment on a later Release still
// reaches the (now re-dialed, if the link's LRM reconnects) parent; a
// repayment after Close simply fails and is logged.
func (f *front) DetachParent() error {
	f.linkMu.Lock()
	link := f.link
	f.link = nil
	f.linkMu.Unlock()
	if link == nil {
		return nil
	}
	f.relink(link, nil)
	return link.lrm.Close()
}

// closeLink ends a Close: it closes the link this front attached, after
// every book has drained, so queued borrows were still repaid through it,
// and refuses any later attach.
func (f *front) closeLink() {
	f.linkMu.Lock()
	f.done = true
	f.linkMu.Unlock()
	f.DetachParent()
}

// noteBorrowLocked records a federation borrow on this level's balance
// and journals it: the parent granted `amount` units under its lease
// token for principal's allocation. Callers hold s.mu.
func (s *Server) noteBorrowLocked(principal int, amount float64, parentLease int) {
	s.borrows[parentLease] += amount
	s.appendLocked(store.Record{Kind: store.KindBorrow, Principal: principal,
		Amount: amount, ParentLease: parentLease})
}

// noteRepayLocked settles a federation borrow on this level's balance
// and journals the repayment intent; the parent round trip itself runs
// outside the lock. Callers hold s.mu.
func (s *Server) noteRepayLocked(parentLease int) {
	delete(s.borrows, parentLease)
	s.appendLocked(store.Record{Kind: store.KindRepay, ParentLease: parentLease})
}

// borrow asks the parent for `amount` units from the federation and
// returns the granted amount together with the parent's lease token. The
// token MUST eventually be repaid via repayParent — on child Release, on
// lease expiry, or by the allocation pipeline when the request it was
// borrowed for ends without a lease — otherwise sibling-cluster capacity
// leaks at the parent. It is called with s.mu released; the parent round
// trip runs on the parent's own connection, so no lock ordering issue
// arises (the parent GRM never calls back into this server).
func (p *parentLink) borrow(amount float64) (float64, int, error) {
	if amount <= 0 {
		return 0, 0, nil
	}
	reply, err := p.lrm.Allocate(amount)
	if err != nil {
		return 0, 0, err
	}
	var got float64
	for _, take := range reply.Takes {
		got += take
	}
	return got, reply.Lease, nil
}

// repayParent returns a borrow's lease to the parent, restoring
// sibling-cluster availability. Called with s.mu released, after the
// repayment was journaled (noteRepayLocked); a parent that cannot be
// reached is logged and its lease left to the parent's TTL reaper.
func (s *Server) repayParent(link *parentLink, token int) {
	if err := link.lrm.Release(token); err != nil {
		s.logger.Printf("grm: repaying parent lease %d: %v", token, err)
	}
}
