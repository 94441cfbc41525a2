package grm

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"repro/internal/agreement"
	"repro/internal/store"
)

// Durability: every committed transition is appended to the attached
// store.Log, and Recover replays a log into a pristine server so a
// restarted GRM resumes with the exact leases, borrows, and capacities
// the crashed one held. Replay drives the same *Locked helpers as live
// operation (with no log attached, so nothing is re-recorded), which
// keeps the two paths from drifting.

// expiryUnix encodes a lease expiry for the log: unix nanoseconds, 0 for
// "never expires" (the zero time).
func expiryUnix(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// expiryTime is the inverse of expiryUnix.
func expiryTime(n int64) time.Time {
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n)
}

// SetLog attaches a write-ahead log to record through. Attach before
// Serve (or recover with Recover, which attaches the replayed log); state
// committed while no log is attached is not durable.
func (s *Server) SetLog(l store.Log) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log = l
}

// appendLocked assigns the next sequence number and appends rec to the
// log. The record is journaled from s.rec, the server's one scratch
// record — Append keeps nothing of what it is handed and s.mu serializes
// its users — so journaling an operation allocates nothing. A log write
// failure is logged, counted in Status.WalAppendErrors and otherwise
// ignored: the GRM keeps serving from memory rather than failing requests
// on a full disk (the WAL is a recovery aid, not a commit gate), and the
// log drops only the record that failed. No-op when no log is attached —
// which is also what makes replay safe to run through the live helpers.
// Callers hold s.mu.
func (s *Server) appendLocked(rec store.Record) {
	if s.log == nil {
		return
	}
	s.seq++
	s.rec = rec
	s.rec.Seq = s.seq
	if err := s.log.Append(&s.rec); err != nil {
		s.walAppendErrors++
		s.logger.Printf("grm: wal append (%s): %v", rec.Kind, err)
	}
}

// Recover replays a log into this server and then attaches it, so the
// server resumes recording where the previous incarnation stopped. The
// server must be pristine: no registered principals, no leases, no log.
// Call before Serve. Recovered leases that carried a federation borrow
// have no live parent connection; UnresolvedBorrows lists them so the
// operator (or a re-attached parent link's TTL) can settle them.
func (s *Server) Recover(l store.Log) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log != nil {
		return fmt.Errorf("grm: Recover: log already attached")
	}
	if len(s.names) > 0 || len(s.leases) > 0 {
		return fmt.Errorf("grm: Recover: server already has state")
	}
	var maxSeq uint64
	err := l.Replay(func(rec *store.Record) error {
		if err := s.applyLocked(rec); err != nil {
			return fmt.Errorf("grm: Recover: seq %d (%s): %w", rec.Seq, rec.Kind, err)
		}
		maxSeq = max(maxSeq, rec.Seq)
		return nil
	})
	if err != nil {
		return err
	}
	s.log = l
	s.seq = maxSeq
	return nil
}

// applyLocked applies one replayed record. Callers hold s.mu and have
// ensured no log is attached (so the helpers do not re-record).
func (s *Server) applyLocked(rec *store.Record) error {
	switch rec.Kind {
	case store.KindState:
		if rec.State == nil {
			return fmt.Errorf("state record without payload")
		}
		return s.applyStateLocked(rec.State)
	case store.KindSnapshotLoad:
		snap, err := agreement.ReadSnapshot(bytes.NewReader(rec.Snapshot))
		if err != nil {
			return err
		}
		return s.installSnapshotLocked(snap, rec.Snapshot)
	case store.KindRegister:
		pid, err := s.registerLocked(rec.Name, rec.Capacity)
		if err != nil {
			return err
		}
		if pid != rec.Principal {
			return fmt.Errorf("replayed principal %d, log says %d", pid, rec.Principal)
		}
		return nil
	case store.KindReport:
		if err := s.checkPrincipal(rec.Principal); err != nil {
			return err
		}
		return s.reportLocked(rec.Principal, rec.Available)
	case store.KindShare:
		ticket, err := s.shareLocked(rec.From, rec.To, rec.Fraction, rec.Quantity)
		if err != nil {
			return err
		}
		if ticket != rec.Ticket {
			return fmt.Errorf("replayed ticket %d, log says %d", ticket, rec.Ticket)
		}
		return nil
	case store.KindRevoke:
		if rec.Ticket < 0 || rec.Ticket >= len(s.shareHist) {
			return fmt.Errorf("unknown ticket %d", rec.Ticket)
		}
		s.revokeLocked(rec.Ticket)
		return nil
	case store.KindAlloc:
		// Install the recorded outcome directly instead of replanning:
		// the solve already happened and its takes are the committed
		// truth — replaying through the LP would have to reproduce the
		// exact batch order, and every borrowed credit, to match.
		le, err := s.recoveredLease(rec.Sources, rec.Takes, rec.Expires, rec.ParentLease)
		if err != nil {
			return fmt.Errorf("lease %d: %w", rec.Lease, err)
		}
		s.debitLocked(le.sources, le.takes)
		s.leases[rec.Lease] = le
		s.nextLease = max(s.nextLease, rec.Lease+1)
		return nil
	case store.KindRelease, store.KindExpire:
		le, ok := s.leases[rec.Lease]
		if !ok {
			return fmt.Errorf("unknown lease %d", rec.Lease)
		}
		s.removeLeaseLocked(rec.Kind, rec.Lease, le)
		return nil
	case store.KindRenew:
		le, ok := s.leases[rec.Lease]
		if !ok {
			return fmt.Errorf("unknown lease %d", rec.Lease)
		}
		le.expires = expiryTime(rec.Expires)
		return nil
	case store.KindBorrow:
		// The availability effect of a borrow is inside the subsequent
		// alloc record's takes; what replays here is this level's borrow
		// balance, so a restarted node still knows what it owes upward.
		s.noteBorrowLocked(rec.Principal, rec.Amount, rec.ParentLease)
		return nil
	case store.KindRepay:
		s.noteRepayLocked(rec.ParentLease)
		return nil
	default:
		return fmt.Errorf("unknown record kind %d", rec.Kind)
	}
}

// recoveredLease rebuilds a lease from its journaled takes — pairs, or
// the dense vector some JSON-era logs hold — and checks the pairs against
// the books the replay has rebuilt so far: the log is outside input, and
// debit and credit index the availability view by source without looking.
// The record's slices are kept, not copied; replayed records are not
// written to again.
func (s *Server) recoveredLease(sources []int, takes []float64, expires int64, parentLease int) (*lease, error) {
	sources, takes = store.SparseTakes(sources, takes)
	if len(sources) != len(takes) {
		return nil, fmt.Errorf("%d sources for %d takes", len(sources), len(takes))
	}
	for k, p := range sources {
		if p < 0 || p >= len(s.avail) || (k > 0 && p <= sources[k-1]) {
			return nil, fmt.Errorf("source %d (entry %d) is out of order or not one of %d principals", p, k, len(s.avail))
		}
		if err := checkQuantity("take", takes[k]); err != nil {
			return nil, fmt.Errorf("source %d: %w", p, err)
		}
	}
	return &lease{sources: sources, takes: takes, expires: expiryTime(expires), parentLease: parentLease}, nil
}

// applyStateLocked rebuilds the server from a compacted snapshot. It
// resets the dynamic state, restores the preloaded agreements snapshot if
// one was declared, re-registers the remaining principals, replays the
// ordered share history (so ticket tokens — indexes — line up), and
// installs the books and outstanding leases.
func (s *Server) applyStateLocked(st *store.State) error {
	s.declared, s.issued = nil, nil
	s.shareHist, s.liveShares = nil, 0
	s.names, s.byName = nil, map[string]int{}
	s.avail = nil
	s.reported = nil
	s.declaredSnap = nil
	s.leases = map[int]*lease{}
	s.borrows = map[int]float64{}
	s.dropPlannerLocked()

	if len(st.Declared) > 0 {
		snap, err := agreement.ReadSnapshot(bytes.NewReader(st.Declared))
		if err != nil {
			return fmt.Errorf("declared snapshot: %w", err)
		}
		if err := s.installSnapshotLocked(snap, st.Declared); err != nil {
			return fmt.Errorf("declared snapshot: %w", err)
		}
	}
	if len(s.names) > len(st.Names) {
		return fmt.Errorf("declared snapshot has %d principals, state has %d", len(s.names), len(st.Names))
	}
	for i, name := range st.Names {
		if i < len(s.names) {
			if s.names[i] != name {
				return fmt.Errorf("principal %d is %q, state says %q", i, s.names[i], name)
			}
			continue
		}
		pid, err := s.registerLocked(name, 0)
		if err != nil {
			return err
		}
		if pid != i {
			return fmt.Errorf("replayed principal %d, state says %d", pid, i)
		}
	}
	for i, sh := range st.Shares {
		ticket, err := s.shareLocked(sh.From, sh.To, sh.Fraction, sh.Quantity)
		if err != nil {
			return fmt.Errorf("share %d: %w", i, err)
		}
		if ticket != i {
			return fmt.Errorf("replayed ticket %d, state says %d", ticket, i)
		}
		if sh.Revoked {
			s.revokeLocked(ticket)
		}
	}
	if len(st.Reported) != len(s.names) || len(st.Avail) != len(s.names) {
		return fmt.Errorf("books cover %d/%d principals, have %d", len(st.Reported), len(st.Avail), len(s.names))
	}
	for i := range s.names {
		if err := checkQuantity("reported capacity", st.Reported[i]); err != nil {
			return fmt.Errorf("principal %d: %w", i, err)
		}
		if err := checkQuantity("availability", st.Avail[i]); err != nil {
			return fmt.Errorf("principal %d: %w", i, err)
		}
	}
	copy(s.reported, st.Reported)
	copy(s.avail, st.Avail)
	for _, ls := range st.Leases {
		le, err := s.recoveredLease(ls.Sources, ls.Takes, ls.Expires, ls.ParentLease)
		if err != nil {
			return fmt.Errorf("lease %d: %w", ls.Token, err)
		}
		s.leases[ls.Token] = le
	}
	for _, b := range st.Borrows {
		s.borrows[b.ParentLease] = b.Amount
	}
	s.nextLease = st.NextLease
	return nil
}

// stateLocked builds the compacted image of the current dynamic state.
// Callers hold s.mu.
func (s *Server) stateLocked() *store.State {
	st := &store.State{
		Declared:  append([]byte(nil), s.declaredSnap...),
		Names:     append([]string(nil), s.names...),
		Reported:  append([]float64(nil), s.reported...),
		Avail:     append([]float64(nil), s.avail...),
		NextLease: s.nextLease,
	}
	for _, sh := range s.shareHist {
		st.Shares = append(st.Shares, store.ShareState{
			From:     sh.From,
			To:       sh.To,
			Fraction: sh.Fraction,
			Quantity: sh.Quantity,
			Revoked:  sh.revoked,
		})
	}
	tokens := make([]int, 0, len(s.leases))
	for token := range s.leases {
		tokens = append(tokens, token)
	}
	sort.Ints(tokens)
	for _, token := range tokens {
		le := s.leases[token]
		st.Leases = append(st.Leases, store.LeaseState{
			Token:       token,
			Sources:     le.sources,
			Takes:       le.takes,
			Expires:     expiryUnix(le.expires),
			ParentLease: le.parentLease,
		})
	}
	borrowTokens := make([]int, 0, len(s.borrows))
	for token := range s.borrows {
		borrowTokens = append(borrowTokens, token)
	}
	sort.Ints(borrowTokens)
	for _, token := range borrowTokens {
		st.Borrows = append(st.Borrows, store.BorrowState{ParentLease: token, Amount: s.borrows[token]})
	}
	return st
}

// Compact folds the entire log into one snapshot record of the current
// state, bounding replay time and log growth. The log stays consistent
// throughout: the mutex is held across the fold so no transition can
// slip between the snapshot and the truncation. No-op without a log.
func (s *Server) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	s.seq++
	rec := &store.Record{Seq: s.seq, Kind: store.KindState, State: s.stateLocked()}
	return s.log.Compact(rec)
}

// UnresolvedBorrows lists the parent lease tokens of recovered leases
// whose federation link did not survive the restart: the borrows are
// still on the parent's books, but this server holds no connection to
// repay them through. The parent's lease TTL reclaims them eventually;
// the tokens are surfaced so operators can settle sooner.
func (s *Server) UnresolvedBorrows() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int
	for _, le := range s.leases {
		if le.parentLease != 0 && le.parentLink == nil {
			out = append(out, le.parentLease)
		}
	}
	sort.Ints(out)
	return out
}
