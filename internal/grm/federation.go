package grm

import (
	"fmt"

	"repro/internal/store"
)

// parentLink is a child GRM's registration with a parent GRM, through
// which it borrows capacity from sibling clusters.
type parentLink struct {
	lrm *LRM
}

// AttachParent registers this GRM as an LRM of a parent GRM, realizing
// the paper's multi-level GRM architecture: the parent sees the whole
// cluster as one principal whose capacity is the cluster's aggregate free
// capacity. Call after local LRMs have registered; ReportUpstream keeps
// the parent's view fresh.
func (s *Server) AttachParent(addr, name string) error {
	return s.AttachParentConfig(addr, name, DefaultDialConfig())
}

// AttachParentConfig is AttachParent with explicit dial/retry behavior for
// the parent connection. A reservation is held across the dial so that
// concurrent attach attempts cannot each register at the parent and leak
// the loser's connection: exactly one caller dials, the rest fail fast.
func (s *Server) AttachParentConfig(addr, name string, cfg DialConfig) error {
	s.mu.Lock()
	if s.parent != nil || s.attaching {
		s.mu.Unlock()
		return fmt.Errorf("grm: parent already attached")
	}
	s.attaching = true
	var total float64
	for _, a := range s.avail {
		total += a
	}
	s.mu.Unlock()

	lrm, err := DialWithConfig(addr, name, total, cfg)
	s.mu.Lock()
	s.attaching = false
	if err != nil {
		s.mu.Unlock()
		return fmt.Errorf("grm: attach parent: %w", err)
	}
	s.parent = &parentLink{lrm: lrm}
	// Availability reported while the dial was in flight (the lock is
	// released across it) is not in the registered capacity; recompute
	// under the same lock that admits reports and refresh the parent's
	// view so those reports are not lost.
	var fresh float64
	for _, a := range s.avail {
		fresh += a
	}
	s.mu.Unlock()
	if fresh != total {
		if rerr := lrm.Report(fresh); rerr != nil {
			s.mu.Lock()
			s.parent = nil
			s.mu.Unlock()
			lrm.Close()
			return fmt.Errorf("grm: attach parent: refresh aggregate: %w", rerr)
		}
	}
	return nil
}

// Parent returns the LRM this GRM uses to talk to its parent (nil when
// not attached). The caller may use it to create inter-cluster sharing
// agreements with sibling clusters.
func (s *Server) Parent() *LRM {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.parent == nil {
		return nil
	}
	return s.parent.lrm
}

// ReportUpstream sends the cluster's current aggregate free capacity to
// the parent GRM.
func (s *Server) ReportUpstream() error {
	s.mu.Lock()
	p := s.parent
	var total float64
	for _, a := range s.avail {
		total += a
	}
	s.mu.Unlock()
	if p == nil {
		return fmt.Errorf("grm: no parent attached")
	}
	return p.lrm.Report(total)
}

// DetachParent closes the parent connection. Leases that borrowed through
// the link keep a reference to it, so repayment on a later Release still
// reaches the (now re-dialed, if the link's LRM reconnects) parent; a
// repayment after Close simply fails and is logged.
func (s *Server) DetachParent() error {
	s.mu.Lock()
	p := s.parent
	s.parent = nil
	s.mu.Unlock()
	if p == nil {
		return nil
	}
	return p.lrm.Close()
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
