package grm

import (
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// The batched allocation pipeline. Connection handlers do not solve the
// LP themselves: alloc enqueues the request on an admission queue and a
// single scheduler goroutine (started by Serve) drains it, coalescing
// every concurrently pending request into one core.PlanBatch solve. One
// batch pays one availability snapshot, one epoch check, and one commit
// critical section for the whole burst, where the per-request optimistic
// loop paid a discarded stale solve plus a conflict re-solve per
// concurrent request.
//
// The per-request optimistic path survives as allocDirect: it serves
// dispatch calls made before Serve starts the scheduler (unit tests drive
// the server that way) and federation fallbacks, where a request that
// exceeds local capacity needs the borrow round trip the batch must not
// block on.

const (
	// allocQueueCap bounds the admission queue; enqueueing blocks (with a
	// shutdown escape) when a burst outruns the scheduler.
	allocQueueCap = 128
	// maxBatchSize caps how many queued requests coalesce into one
	// PlanBatch solve, bounding both commit latency for the first request
	// in a batch and the size of the bulk result arrays.
	maxBatchSize = 16
)

// allocJob carries one allocation request through the admission queue.
// resp is buffered so neither the scheduler nor a fallback goroutine ever
// blocks on a requester that stopped listening.
type allocJob struct {
	req  *AllocRequest
	resp chan *Response
}

// alloc plans and commits an allocation. With the scheduler running it
// goes through the admission queue; otherwise (dispatch driven directly
// in tests, before any Serve) it plans inline via the optimistic path.
func (s *Server) alloc(r *AllocRequest) *Response {
	if !s.schedOn.Load() {
		return s.allocDirect(r)
	}
	job := &allocJob{req: r, resp: make(chan *Response, 1)}
	select {
	case s.allocQ <- job:
		s.mQueueDepth.Set(float64(len(s.allocQ)))
	case <-s.closed:
		return errorf("grm: alloc: server closed")
	}
	select {
	case resp := <-job.resp:
		return resp
	case <-s.closed:
		// The scheduler answers queued jobs while shutting down; prefer
		// its reply when it raced ahead of the close signal.
		select {
		case resp := <-job.resp:
			return resp
		default:
			return errorf("grm: alloc: server closed")
		}
	}
}

// batchScratch is the working storage of processBatch. Only the scheduler
// goroutine runs processBatch, so one set, resliced per batch, serves
// every batch; nothing in it outlives the call that filled it.
type batchScratch struct {
	replies []*Response
	live    []*allocJob
	liveIdx []int
	reqs    []core.BatchRequest
	v       []float64 // the availability snapshot a solve runs against
}

// scheduler drains the admission queue until the server closes: it takes
// the first waiting job, coalesces whatever else is already queued into a
// batch, and plans the batch as one PlanBatch call.
func (s *Server) scheduler() {
	defer s.wg.Done()
	batch := make([]*allocJob, 0, maxBatchSize)
	sc := &batchScratch{
		replies: make([]*Response, maxBatchSize),
		live:    make([]*allocJob, 0, maxBatchSize),
		liveIdx: make([]int, 0, maxBatchSize),
		reqs:    make([]core.BatchRequest, 0, maxBatchSize),
	}
	for {
		select {
		case <-s.closed:
			s.drainAllocQ()
			return
		case job := <-s.allocQ:
			batch = append(batch[:0], job)
		coalesce:
			for len(batch) < maxBatchSize {
				select {
				case j := <-s.allocQ:
					batch = append(batch, j)
				default:
					break coalesce
				}
			}
			s.mQueueDepth.Set(float64(len(s.allocQ)))
			s.processBatch(batch, sc)
		}
	}
}

// drainAllocQ answers every still-queued job with a shutdown error.
func (s *Server) drainAllocQ() {
	for {
		select {
		case job := <-s.allocQ:
			job.resp <- errorf("grm: alloc: server closed")
		default:
			return
		}
	}
}

// processBatch validates, plans, and commits one batch of allocation
// requests. The PlanBatch solve runs outside the lock against a
// snapshotted availability vector and state epoch, exactly like the
// optimistic single-request path; if the epoch moved mid-solve the whole
// batch re-solves, and after maxPlanConflicts discards it solves while
// holding the lock for guaranteed progress. Requests that exceed local
// capacity while a parent GRM is attached leave the batch and retry on
// the direct path, which performs the federation borrow round trip.
func (s *Server) processBatch(jobs []*allocJob, sc *batchScratch) {
	started := time.Now()
	replies := sc.replies[:len(jobs)]
	clear(replies)
	var fallback []*allocJob

	s.mu.Lock()
	live, liveIdx := sc.live[:0], sc.liveIdx[:0]
	for i, job := range jobs {
		if err := s.checkPrincipal(job.req.Principal); err != nil {
			replies[i] = errorf("grm: alloc: %v", err)
			continue
		}
		if job.req.Amount < 0 {
			replies[i] = errorf("grm: alloc: negative amount %g", job.req.Amount)
			continue
		}
		live = append(live, job)
		liveIdx = append(liveIdx, i)
	}
	conflicts := 0
	for len(live) > 0 {
		planner, err := s.currentPlannerLocked()
		if err != nil {
			for _, i := range liveIdx {
				replies[i] = errorResponse(err, "grm: alloc: %v", err)
			}
			break
		}
		sc.v = append(sc.v[:0], s.avail...)
		epoch := s.epoch
		reqs := sc.reqs[:0]
		for _, job := range live {
			reqs = append(reqs, core.BatchRequest{Requester: job.req.Principal, Amount: job.req.Amount})
		}
		locked := conflicts >= maxPlanConflicts
		if !locked {
			hook := s.testHookUnlocked
			s.mu.Unlock()
			if hook != nil {
				hook()
			}
		}
		results := planner.PlanBatch(sc.v, reqs)
		if !locked {
			s.mu.Lock()
		}
		if !locked && s.epoch != epoch {
			// State moved while the batch solved: the chained plans may
			// overdraw sources. Discard and re-solve the whole batch.
			conflicts++
			s.planConflicts++
			continue
		}
		for k, job := range live {
			i := liveIdx[k]
			res := results[k]
			if res.Err != nil {
				if errors.Is(res.Err, core.ErrInsufficient) && s.parent != nil {
					fallback = append(fallback, job)
					continue
				}
				replies[i] = errorf("grm: alloc: %v", res.Err)
				continue
			}
			//lint:ignore sharingvet/lockorder held under the optimistic protocol: the unlock/relock pair is guarded by the same locked flag on every path
			replies[i] = &Response{Alloc: s.commitAllocLocked(job.req, res.Alloc, nil, 0)}
		}
		s.mBatches.Inc()
		s.mBatchedReqs.Add(int64(len(live) - len(fallback)))
		if size := float64(len(live)); size > s.mMaxBatch.Value() {
			s.mMaxBatch.Set(size) // scheduler is the only writer
		}
		break
	}
	s.mu.Unlock()
	s.mBatchPlanNS.Add(time.Since(started).Nanoseconds())

	for i, job := range jobs {
		if replies[i] != nil {
			job.resp <- replies[i]
		}
	}
	// Federation fallbacks replan on the direct path, which may block on
	// the parent round trip; they must not stall the next batch. The
	// goroutines are wg-tracked so Close still waits for them.
	for _, job := range fallback {
		s.wg.Add(1)
		go func(j *allocJob) {
			defer s.wg.Done()
			j.resp <- s.allocDirect(j.req)
		}(job)
	}
}

// commitAllocLocked applies a solved plan: debits the availability view,
// bumps the epoch, mints the lease, and records the allocation in the
// write-ahead log. Callers hold s.mu and hand over plan, which the
// journal may keep. It returns the reply to send.
//
// This is where the plan's population-sized Take is read for the last
// time: its non-zero entries become one pair of slices that the lease,
// the reply (and through it the tap) and the journal record share, so
// everything from here to the client costs what the allocation touches.
func (s *Server) commitAllocLocked(req *AllocRequest, plan *core.Allocation, borrowedFrom *parentLink, parentLease int) *AllocReply {
	sources, takes := store.SparseTakes(nil, plan.Take)
	s.debitLocked(sources, takes)
	token := s.nextLease
	s.nextLease++
	le := &lease{
		sources:     sources,
		takes:       takes,
		parentLink:  borrowedFrom,
		parentLease: parentLease,
	}
	if s.leaseTTL > 0 {
		le.expires = s.clock.Now().Add(s.leaseTTL)
	}
	s.leases[token] = le
	rec := &store.Record{
		Kind:        store.KindAlloc,
		Principal:   req.Principal,
		Amount:      req.Amount,
		Sources:     sources,
		Takes:       takes,
		Lease:       token,
		Expires:     expiryUnix(le.expires),
		ParentLease: parentLease,
	}
	if journalDense(len(sources), len(plan.Take)) {
		rec.Sources, rec.Takes = nil, plan.Take
	}
	s.appendLocked(rec)
	return &AllocReply{Sources: sources, Takes: takes, Theta: plan.Theta, Lease: token, TTL: s.leaseTTL}
}

// journalDense picks the form an allocation over n principals is
// journaled in: true for the dense vector (nil Sources), false for pairs.
// The log is JSON. There a principal that gives nothing costs 2 bytes in
// the dense vector ("0,"), and a source costs, on top of its amount, its
// id and a comma in the pair form — up to 6 bytes for ids below 10^5 —
// plus 9 bytes once for the "src" key. With k sources the forms break
// even where 6k+9 = 2(n−k), just short of k = n/4 (later for shorter
// ids): below it pairs are the shorter record, above it the dense vector
// is, and on a workload whose allocations draw on most of the population
// (a ring, a small complete graph) the rule keeps the log at the size it
// had before pairs existed. Recovery reads both forms, so the rule can
// change without a migration; a binary record would not need one.
func journalDense(sources, n int) bool { return 4*sources > n }

// debitLocked takes an allocation's pairs out of the availability view,
// clamped at zero. Callers hold s.mu and journal the allocation.
//
//lint:ignore sharingvet/waljournal callers journal the alloc record (commitAllocLocked) or are replaying one
func (s *Server) debitLocked(sources []int, takes []float64) {
	for k, p := range sources {
		s.avail[p] -= takes[k]
		if s.avail[p] < 0 {
			s.avail[p] = 0
		}
	}
	s.epoch++
}

// maxPlanConflicts bounds the optimistic re-solves in allocDirect and
// processBatch before they fall back to planning under the lock for
// guaranteed progress.
const maxPlanConflicts = 8

// allocDirect plans and commits one allocation on the per-request
// optimistic path. The LP solve runs OUTSIDE the lock: it snapshots the
// planner, the availability vector, and the state epoch, releases the
// lock, solves, then re-acquires and commits only if the epoch is
// unchanged. If another request moved the epoch in the meantime the stale
// plan is discarded and the solve repeated; after maxPlanConflicts
// discards it plans while holding the lock, which cannot conflict.
//
// When local capacity falls short and a parent GRM is attached, the lock
// is likewise released around the parent's network round trip, then the
// plan is retried against the then-current availability with the borrowed
// capacity credited to the requester. The parent's lease token is recorded
// on the local lease so Release (or the reaper) repays the borrow; if the
// retried plan fails, the borrow is repaid immediately — a failed
// allocation must leave the federation's books untouched.
func (s *Server) allocDirect(r *AllocRequest) *Response {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkPrincipal(r.Principal); err != nil {
		return errorf("grm: alloc: %v", err)
	}
	if r.Amount < 0 {
		return errorf("grm: alloc: negative amount %g", r.Amount)
	}
	var borrowed float64
	var parentLease int
	var borrowedFrom *parentLink
	borrowTried := false
	// repay undoes a pending federation borrow on a non-commit exit path.
	// Called with s.mu held; drops it around the parent round trip.
	repay := func() {
		if parentLease == 0 {
			return
		}
		link, token := borrowedFrom, parentLease
		parentLease = 0
		s.noteRepayLocked(token)
		s.mu.Unlock()
		if err := link.repay(token); err != nil {
			s.logger.Printf("grm: alloc: repaying parent lease %d: %v", token, err)
		}
		s.mu.Lock()
	}
	conflicts := 0
	for {
		planner, err := s.currentPlannerLocked()
		if err != nil {
			repay()
			return errorResponse(err, "grm: alloc: %v", err)
		}
		// Snapshot what the solve needs. planner is immutable and v a
		// private copy, so the solve itself needs no lock.
		v := append([]float64(nil), s.avail...)
		v[r.Principal] += borrowed
		epoch := s.epoch
		locked := conflicts >= maxPlanConflicts
		if !locked {
			hook := s.testHookUnlocked
			s.mu.Unlock()
			if hook != nil {
				hook()
			}
		}
		plan, err := planner.Plan(v, r.Principal, r.Amount)
		if !locked {
			s.mu.Lock()
		}
		if errors.Is(err, core.ErrInsufficient) && s.parent != nil && !borrowTried {
			borrowTried = true
			caps := planner.Capacities(v)
			deficit := r.Amount - caps[r.Principal]
			parent := s.parent
			s.mu.Unlock()
			got, token, berr := parent.borrow(deficit)
			s.mu.Lock()
			if berr != nil {
				return errorf("grm: alloc: local capacity %g short of %g and parent refused: %v",
					caps[r.Principal], r.Amount, berr)
			}
			borrowed, parentLease, borrowedFrom = got, token, parent
			s.noteBorrowLocked(r.Principal, got, token)
			continue
		}
		if err != nil {
			repay()
			return errorf("grm: alloc: %v", err)
		}
		if !locked && s.epoch != epoch {
			// Availability or agreements moved while we solved: the plan
			// may overdraw sources. Discard it and re-solve.
			conflicts++
			s.planConflicts++
			continue
		}
		// Commit the GRM's availability view; LRMs overwrite it with
		// their next reports, and Release returns the lease.
		//lint:ignore sharingvet/lockorder held under the optimistic protocol: the unlock/relock pair is guarded by the same locked flag on every path
		return &Response{Alloc: s.commitAllocLocked(r, plan, borrowedFrom, parentLease)}
	}
}

// PlanConflicts reports how many optimistic solves have been discarded
// and retried because the server state changed mid-solve.
func (s *Server) PlanConflicts() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.planConflicts
}
