package grm

import (
	"fmt"
	"math"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/store"
)

// Request handlers for everything except allocation (alloc.go). Each wire
// handler validates under s.mu, applies the transition through a *Locked
// helper, and records it in the write-ahead log. Crash recovery
// (recovery.go) replays the same *Locked helpers, so a restarted server
// walks the identical code paths live operation did.

// checkQuantity refuses a capacity, availability, amount, fraction or
// quantity that is negative or not finite. These floats come off the wire
// (wirefmt hands any bit pattern through) or out of a log, and one NaN or
// +Inf in the books panics the next plan under s.mu; so the *Locked helpers
// check what they store, and a request and a replayed record are refused by
// the same line.
func checkQuantity(what string, x float64) error {
	switch {
	case x < 0:
		return fmt.Errorf("negative %s %g", what, x)
	case math.IsNaN(x) || math.IsInf(x, 1):
		return fmt.Errorf("non-finite %s %g", what, x)
	}
	return nil
}

func (s *Server) register(r *RegisterRequest) *Response {
	if r.Name == "" {
		return errorf("grm: register: empty name")
	}
	pid, err := s.registerLocked(r.Name, r.Capacity)
	if err != nil {
		return errorf("grm: register: %v", err)
	}
	return &Response{Register: &RegisterReply{Principal: pid}}
}

// registerLocked binds name to a principal: an existing principal (one
// declared by a preloaded snapshot, or a previous registration) is
// re-attached with the fresh capacity, otherwise a new principal and its
// general resource are created. Callers hold s.mu.
func (s *Server) registerLocked(name string, capacity float64) (int, error) {
	if err := checkQuantity("capacity", capacity); err != nil {
		return 0, err
	}
	for i, have := range s.names {
		if have == name {
			s.avail[i] = capacity
			if capacity > s.reported[i] {
				s.reported[i] = capacity
			}
			s.appendLocked(store.Record{Kind: store.KindRegister, Principal: i, Name: name, Capacity: capacity})
			s.logger.Printf("grm: %q re-attached as principal %d (capacity %g)", name, i, capacity)
			return i, nil
		}
	}
	pid := s.sys.AddPrincipal(name)
	rid, err := s.sys.AddResource(name, agreement.General, pid, capacity)
	if err != nil {
		return 0, err
	}
	s.resources = append(s.resources, rid)
	s.avail = append(s.avail, capacity)
	s.reported = append(s.reported, capacity)
	s.names = append(s.names, name)
	if s.planner != nil {
		// A fresh principal holds no agreements: extend the planner by a
		// zero row/column instead of discarding it — Grow's closure is a
		// zero-extension, no chain re-enumeration.
		s.planner = s.planner.Grow(1)
	}
	s.appendLocked(store.Record{Kind: store.KindRegister, Principal: int(pid), Name: name, Capacity: capacity})
	s.logger.Printf("grm: registered %q as principal %d (capacity %g)", name, pid, capacity)
	return int(pid), nil
}

func (s *Server) report(r *ReportRequest) *Response {
	if err := s.checkPrincipal(r.Principal); err != nil {
		return errorf("grm: report: %v", err)
	}
	if err := s.reportLocked(r.Principal, r.Available); err != nil {
		return errorf("grm: report: %v", err)
	}
	return &Response{Report: &ReportReply{}}
}

// reportLocked overwrites a principal's availability with its LRM's
// report and lifts the reported high-water mark. Callers hold s.mu and
// have validated the principal.
func (s *Server) reportLocked(principal int, available float64) error {
	if err := checkQuantity("availability", available); err != nil {
		return err
	}
	s.avail[principal] = available
	if available > s.reported[principal] {
		s.reported[principal] = available
	}
	s.appendLocked(store.Record{Kind: store.KindReport, Principal: principal, Available: available})
	return nil
}

func (s *Server) share(r *ShareRequest) *Response {
	if err := s.checkPrincipal(r.From); err != nil {
		return errorf("grm: share: %v", err)
	}
	if err := s.checkPrincipal(r.To); err != nil {
		return errorf("grm: share: %v", err)
	}
	switch {
	case r.Fraction > 0 && r.Quantity == 0:
		if r.Fraction > 1 {
			return errorf("grm: share: fraction %g exceeds 1", r.Fraction)
		}
	case r.Quantity > 0 && r.Fraction == 0:
	default:
		return errorf("grm: share: exactly one of Fraction or Quantity must be positive")
	}
	ticket, err := s.shareLocked(r.From, r.To, r.Fraction, r.Quantity)
	if err != nil {
		return errorf("grm: share: %v", err)
	}
	s.logger.Printf("grm: agreement %d -> %d (fraction %g, quantity %g)", r.From, r.To, r.Fraction, r.Quantity)
	return &Response{Share: &ShareReply{Ticket: ticket}}
}

// shareLocked creates one agreement — relative when fraction is positive,
// absolute otherwise — and returns its wire ticket token (an index into
// the ordered share history). Callers hold s.mu and have validated the
// principals and that exactly one of fraction/quantity is positive.
func (s *Server) shareLocked(fromP, toP int, fraction, quantity float64) (int, error) {
	if err := checkQuantity("fraction", fraction); err != nil {
		return 0, err
	}
	if err := checkQuantity("quantity", quantity); err != nil {
		return 0, err
	}
	from := s.sys.CurrencyOf(agreement.PrincipalID(fromP))
	to := s.sys.CurrencyOf(agreement.PrincipalID(toP))
	var tid agreement.TicketID
	var err error
	if fraction > 0 {
		units := fraction * s.sys.Currency(from).FaceValue
		tid, err = s.sys.ShareRelative(from, to, units)
	} else {
		tid, err = s.sys.ShareAbsolute(from, to, agreement.General, quantity, agreement.Sharing)
	}
	if err != nil {
		return 0, err
	}
	s.shareHist = append(s.shareHist, shareInfo{tid: tid, from: fromP, to: toP, fraction: fraction, quantity: quantity})
	s.liveShares++
	s.patchPlannerShareLocked(fromP, toP, fraction, quantity)
	ticket := len(s.shareHist) - 1
	s.appendLocked(store.Record{Kind: store.KindShare, From: fromP, To: toP,
		Fraction: fraction, Quantity: quantity, Ticket: ticket})
	return ticket, nil
}

// patchPlannerShareLocked applies one new share ticket to the cached
// planner through the incremental mutators, so agreement churn skips the
// full NewAllocator rebuild (and its exact chain re-enumeration).
//
// Bit-equality with the rebuild path: agreement.Matrices accumulates
// S[from][to] += Face/FaceValue (and A[from][to] += quantity) walking
// tickets in creation order, and this ticket is the newest, so its
// increment is the final addition — old value plus one addition is
// bit-identical to the rebuilt sum. Revocation has no such property
// ((x+f)−f ≠ x in floats); patchPlannerRevokeLocked re-derives the cell
// from the surviving tickets instead. If the mutator refuses (enumeration
// budget) the planner is discarded; the rebuild path then surfaces the
// same refusal, once (currentPlannerLocked). Callers hold s.mu.
func (s *Server) patchPlannerShareLocked(fromP, toP int, fraction, quantity float64) {
	al := s.planner
	if al == nil {
		s.dropPlannerLocked() // the graph changed: a remembered refusal is stale
		return
	}
	if fromP == toP {
		return // self-shares never reach S/A (S_ii = 0 by definition)
	}
	var d *core.Allocator
	var err error
	if fraction > 0 {
		// The same Face/FaceValue division Matrices performs on the ticket.
		face := s.sys.Currency(s.sys.CurrencyOf(agreement.PrincipalID(fromP))).FaceValue
		frac := (fraction * face) / face
		old := al.Share(fromP, toP)
		d, err = al.SetShare(fromP, toP, old, old+frac)
	} else {
		old := al.Agreement(fromP, toP)
		d, err = al.SetAgreement(fromP, toP, old, old+quantity)
	}
	if err != nil {
		s.logger.Printf("grm: share: incremental planner patch refused (%v); deferring to rebuild", err)
		s.dropPlannerLocked()
		return
	}
	s.planner = d
}

// patchPlannerRevokeLocked applies a revocation (already made in s.sys)
// to the cached planner. The rebuilt S and A cells for the ticket's pair
// are the sums, in ticket-creation order, of the surviving tickets
// between the two default currencies; DirectAgreement computes exactly
// those sums, so setting the cells to them is bit-identical to the
// rebuild and removes an entry when no ticket survives. The planner is
// discarded instead when the system holds a virtual currency (a
// preloaded snapshot: cells then collect routed contributions too) or the
// mutator refuses. Callers hold s.mu.
func (s *Server) patchPlannerRevokeLocked(ticket int) {
	al := s.planner
	if al == nil {
		s.dropPlannerLocked() // the graph changed: a remembered refusal is stale
		return
	}
	sh := s.shareHist[ticket]
	rel, abs, ok := s.sys.DirectAgreement(agreement.PrincipalID(sh.from), agreement.PrincipalID(sh.to), agreement.General)
	if !ok {
		s.dropPlannerLocked()
		return
	}
	// Whichever cell the ticket did not feed already holds its sum, and
	// the mutator hands the receiver back.
	d, err := al.SetShare(sh.from, sh.to, al.Share(sh.from, sh.to), rel)
	if err == nil {
		d, err = d.SetAgreement(sh.from, sh.to, d.Agreement(sh.from, sh.to), abs)
	}
	if err != nil {
		s.logger.Printf("grm: revoke: incremental planner patch refused (%v); deferring to rebuild", err)
		s.dropPlannerLocked()
		return
	}
	s.planner = d
}

func (s *Server) revoke(r *RevokeRequest) *Response {
	if r.Ticket < 0 || r.Ticket >= len(s.shareHist) {
		return errorf("grm: revoke: unknown ticket %d", r.Ticket)
	}
	s.revokeLocked(r.Ticket)
	return &Response{Revoke: &ReportReply{}}
}

// revokeLocked revokes an agreement by its validated ticket token. A
// ticket already revoked — an LRM retrying after a lost reply, or an older
// log that journaled such retries — is answered and changes nothing: no
// second record, no planner patch. Callers hold s.mu.
func (s *Server) revokeLocked(ticket int) {
	tid := s.shareHist[ticket].tid
	if s.sys.Ticket(tid).Revoked {
		return
	}
	s.sys.Revoke(tid)
	s.liveShares--
	s.patchPlannerRevokeLocked(ticket)
	s.appendLocked(store.Record{Kind: store.KindRevoke, Ticket: ticket})
}

// release returns a lease's takes to the availability view, capped by
// each principal's last reported capacity (fresh reports remain ground
// truth), and repays the parent GRM when the lease carried a federation
// borrow. The parent round trip happens outside the lock.
func (s *Server) release(r *ReleaseRequest) *Response {
	s.mu.Lock()
	le, ok := s.leases[r.Lease]
	if !ok {
		s.mu.Unlock()
		return errorf("grm: release: unknown lease %d", r.Lease)
	}
	s.removeLeaseLocked(store.KindRelease, r.Lease, le)
	if le.parentLease != 0 && le.parentLink != nil {
		// Record the repayment intent before the round trip: a crash
		// between the two leaves the parent lease to its TTL reaper.
		s.noteRepayLocked(le.parentLease)
	}
	s.mu.Unlock()
	if le.parentLease != 0 && le.parentLink != nil {
		s.repayParent(le.parentLink, le.parentLease)
	}
	return &Response{Release: &ReportReply{}}
}

// renew pushes a live lease's expiry out by the configured TTL.
func (s *Server) renew(r *RenewRequest) *Response {
	le, ok := s.leases[r.Lease]
	if !ok {
		return errorf("grm: renew: unknown lease %d", r.Lease)
	}
	if s.leaseTTL > 0 {
		le.expires = s.clock.Now().Add(s.leaseTTL)
		s.appendLocked(store.Record{Kind: store.KindRenew, Lease: r.Lease, Expires: expiryUnix(le.expires)})
	}
	return &Response{Renew: &RenewReply{TTL: s.leaseTTL}}
}

// removeLeaseLocked drops one lease, credits its takes back to the
// availability view, and journals the removal under kind (KindRelease or
// KindExpire) — the one path by which leases leave the table, live or
// during replay (where appendLocked no-ops). Callers hold s.mu.
func (s *Server) removeLeaseLocked(kind store.Kind, token int, le *lease) {
	delete(s.leases, token)
	s.creditLocked(le.sources, le.takes)
	s.appendLocked(store.Record{Kind: kind, Lease: token, ParentLease: le.parentLease})
}

// creditLocked returns takes to the availability view, capped by the last
// reported capacities. It deliberately appends nothing itself: the
// journaled record is the caller's triggering event (release, expire,
// replayed removal), which is why the waljournal finding is suppressed.
//
//lint:ignore sharingvet/waljournal callers journal the triggering record via removeLeaseLocked or replay
func (s *Server) creditLocked(sources []int, takes []float64) {
	for k, p := range sources {
		s.avail[p] += takes[k]
		if s.avail[p] > s.reported[p] {
			s.avail[p] = s.reported[p]
		}
	}
}

// reaper periodically returns expired leases to the pool (and repays their
// federation borrows) until the server closes.
func (s *Server) reaper() {
	defer s.wg.Done()
	s.mu.Lock()
	every := s.reapEvery
	clock := s.clock
	s.mu.Unlock()
	t := clock.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.closed:
			return
		case now := <-t.C():
			s.reapExpired(now)
		}
	}
}

// Reap synchronously returns every lease expired at the current clock
// reading, exactly as the background reaper would. The deterministic
// cluster runner calls it after advancing a virtual clock so expiry
// happens at a known point in its schedule instead of whenever the reaper
// goroutine wakes. It reports how many leases were reclaimed.
func (s *Server) Reap() int {
	return s.reapExpired(s.clock.Now())
}

// reapExpired collects every lease past its expiry, credits its takes
// back, and repays parent leases outside the lock.
func (s *Server) reapExpired(now time.Time) int {
	s.mu.Lock()
	var repay []*lease
	reaped := 0
	for token, le := range s.leases {
		if le.expires.IsZero() || now.Before(le.expires) {
			continue
		}
		s.removeLeaseLocked(store.KindExpire, token, le)
		reaped++
		if le.parentLease != 0 && le.parentLink != nil {
			s.noteRepayLocked(le.parentLease)
			repay = append(repay, le)
		}
		s.logger.Printf("grm: lease %d expired, takes returned to pool", token)
	}
	s.mu.Unlock()
	for _, le := range repay {
		s.repayParent(le.parentLink, le.parentLease)
	}
	return reaped
}

func (s *Server) caps() *Response {
	planner, err := s.currentPlannerLocked()
	if err != nil {
		return errorResponse(err, "grm: caps: %v", err)
	}
	v := append([]float64(nil), s.avail...)
	return &Response{Caps: &CapsReply{
		Available:  v,
		Capacities: planner.Capacities(v),
	}}
}
