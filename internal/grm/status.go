package grm

import (
	"encoding/json"
	"net/http"
	"sort"
)

// Status is a point-in-time view of the GRM for operators: who is
// registered, what the scheduler believes is available, and what each
// principal could reach through agreements right now.
type Status struct {
	Principals []PrincipalStatus `json:"principals"`
	// Leases is the number of outstanding (unreleased) allocations.
	Leases int `json:"leases"`
	// Agreements is the number of live (unrevoked) agreement tickets
	// created over the wire.
	Agreements int `json:"agreements"`
	// PlanConflicts is always 0: plans are solved under the state lock,
	// so none is ever discarded. The field stays because the benchmark's
	// frozen per-layer table reads it.
	PlanConflicts uint64 `json:"plan_conflicts"`
	// Batches and BatchedRequests describe the allocation pipeline:
	// how many batches were committed and how many requests they served.
	Batches         int64 `json:"batches"`
	BatchedRequests int64 `json:"batched_requests"`
	// MaxBatch is the largest batch coalesced so far.
	MaxBatch int `json:"max_batch"`
	// BatchPlanNanos is the cumulative wall time of batch critical
	// sections (validation, solve, commit, WAL append — not the solve
	// alone), for mean-batch-latency math.
	BatchPlanNanos int64 `json:"batch_plan_nanos"`
	// QueueDepth is the current admission-queue backlog.
	QueueDepth int `json:"queue_depth"`
	// WalAppendErrors counts committed transitions the write-ahead log
	// failed to record since this process started (summed across shards):
	// each is missing from the log, so a recovery now would not land on
	// these books until the next Compact folds them in.
	WalAppendErrors uint64 `json:"wal_append_errors"`
	// Federation is this node's level of the GRM tree: whether a parent
	// is attached and the node's own borrow balance against it. Each node
	// reports only its own level — querying every node of a tree yields
	// the per-level balances instead of one flattened number.
	Federation FederationStatus `json:"federation"`
}

// FederationStatus is one GRM node's borrow balance against its parent.
type FederationStatus struct {
	// Attached reports whether a live parent link exists.
	Attached bool `json:"attached"`
	// TotalBorrowed sums the outstanding borrow amounts at this level.
	TotalBorrowed float64 `json:"total_borrowed"`
	// Borrows lists the outstanding borrows by parent lease token,
	// ascending.
	Borrows []BorrowBalance `json:"borrows,omitempty"`
}

// BorrowBalance is one outstanding federation borrow.
type BorrowBalance struct {
	// ParentLease is the parent GRM's lease token backing the borrow.
	ParentLease int `json:"parent_lease"`
	// Amount is the borrowed quantity still outstanding.
	Amount float64 `json:"amount"`
	// Unresolved marks a borrow no surviving lease can repay through a
	// live parent link (typically after a crash recovery); the parent's
	// lease TTL reclaims it.
	Unresolved bool `json:"unresolved,omitempty"`
}

// PrincipalStatus is one principal's row in the status view.
type PrincipalStatus struct {
	Principal int     `json:"principal"`
	Name      string  `json:"name"`
	Available float64 `json:"available"`
	Reported  float64 `json:"reported"`
	// Capacity is C_i: available plus transitively reachable resources.
	Capacity float64 `json:"capacity"`
}

// Status assembles the current view. With no principals registered the
// capacities are trivially empty rather than an error.
func (s *Server) Status() (*Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := &Status{
		Leases:          len(s.leases),
		Batches:         s.mBatches.Value(),
		BatchedRequests: s.mBatchedReqs.Value(),
		MaxBatch:        int(s.mMaxBatch.Value()),
		BatchPlanNanos:  s.mBatchPlanNS.Value(),
		QueueDepth:      len(s.allocQ),
		WalAppendErrors: s.walAppendErrors,
		Agreements:      s.liveShares,
	}
	out.Federation = s.federationLocked()
	if len(s.avail) == 0 {
		return out, nil
	}
	planner, err := s.currentPlannerLocked()
	if err != nil {
		return nil, err
	}
	caps := planner.Capacities(s.avail)
	for i, name := range s.names {
		out.Principals = append(out.Principals, PrincipalStatus{
			Principal: i,
			Name:      name,
			Available: s.avail[i],
			Reported:  s.reported[i],
			Capacity:  caps[i],
		})
	}
	return out, nil
}

// federationLocked assembles this level's borrow balance. A borrow is
// unresolved when no outstanding lease holds a live parent link for its
// token — the post-recovery state UnresolvedBorrows also surfaces.
// Callers hold s.mu.
func (s *Server) federationLocked() FederationStatus {
	fs := FederationStatus{Attached: s.parent != nil}
	if len(s.borrows) == 0 {
		return fs
	}
	live := map[int]bool{}
	for _, le := range s.leases {
		if le.parentLease != 0 && le.parentLink != nil {
			live[le.parentLease] = true
		}
	}
	tokens := make([]int, 0, len(s.borrows))
	for token := range s.borrows {
		tokens = append(tokens, token)
	}
	sort.Ints(tokens)
	for _, token := range tokens {
		amt := s.borrows[token]
		fs.TotalBorrowed += amt
		fs.Borrows = append(fs.Borrows, BorrowBalance{
			ParentLease: token,
			Amount:      amt,
			Unresolved:  !live[token],
		})
	}
	return fs
}

// ServeHTTP exposes the status as JSON, so a GRM can be wired into any
// stdlib HTTP mux for monitoring:
//
//	http.Handle("/status", grmServer)
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	st, err := s.Status()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(st); err != nil {
		s.logger.Printf("grm: status encode: %v", err)
	}
}
