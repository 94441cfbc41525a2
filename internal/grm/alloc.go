package grm

import (
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// The batched allocation pipeline, the one place an allocation is planned
// and committed. Connection handlers do not solve the LP themselves: alloc
// enqueues the request on an admission queue and a single scheduler
// goroutine drains it, coalescing every concurrently pending request into
// one batch that is validated, planned, committed and journaled while
// s.mu is held. Nothing can move the books under a plan, so each plan is
// solved once, against the books themselves, and committed before the next
// is planned; a report, a share or a release waits out at most one batch
// of maxBatchSize solves. A request that must borrow from a parent GRM
// leaves its batch for the round trip (settle) and rejoins the queue with
// the credit, so the scheduler never waits on the network.

const (
	// allocQueueCap bounds the admission queue; enqueueing blocks (with a
	// shutdown escape) when a burst outruns the scheduler.
	allocQueueCap = 128
	// maxBatchSize caps how many queued requests coalesce into one batch,
	// bounding commit latency for the first request in it and how long
	// s.mu is held.
	maxBatchSize = 16
	// maxBorrowRounds caps the parent round trips one request may make.
	// Only local capacity shrinking during a round trip calls for another,
	// so a request still short after this many is losing a race it will
	// not win and is refused.
	maxBorrowRounds = 3
)

// allocJob carries one allocation request through the admission queue.
// resp is buffered so neither the scheduler nor a settle goroutine ever
// blocks on a requester that stopped listening. The fields below it are
// the federation borrow a request holds between two plans. Whoever holds
// the job owns them: the scheduler while it is in a batch, its settle
// goroutine while it is away. Jobs are recycled through Server.jobs by the
// requester that received the reply — the one send on resp — after which
// neither the scheduler nor a settle goroutine looks at the job again.
type allocJob struct {
	req  *AllocRequest
	resp chan *Response

	parentLease int         // the parent's lease behind credit, repaid unless the job commits; 0 when nothing is borrowed
	credit      float64     // the borrowed amount, lent to the requester for its next plan
	link        *parentLink // the link parentLease was borrowed through
	capacity    float64     // local capacity where the last plan fell short of req.Amount
	rounds      int         // parent round trips made so far
}

// alloc plans and commits an allocation through the admission queue,
// starting the scheduler if Serve has not already.
func (s *Server) alloc(r *AllocRequest) *Response {
	s.startScheduler()
	job := s.jobs.Get().(*allocJob)
	*job = allocJob{req: r, resp: job.resp}
	select {
	case s.allocQ <- job:
		s.mQueueDepth.Set(float64(len(s.allocQ)))
	case <-s.closed:
		return errorf("grm: alloc: server closed")
	}
	select {
	case resp := <-job.resp:
		s.jobs.Put(job)
		return resp
	case <-s.closed:
		// A job already in a batch is still answered while the server
		// shuts down; prefer that reply when it raced ahead of the close
		// signal. Either way the job may still be in the pipeline's hands
		// and is not recycled.
		select {
		case resp := <-job.resp:
			return resp
		default:
			return errorf("grm: alloc: server closed")
		}
	}
}

// startScheduler launches the scheduler goroutine once. Close takes the
// same Once first, so a request arriving after Close starts nothing.
func (s *Server) startScheduler() {
	s.schedStart.Do(func() {
		s.wg.Add(1)
		go s.scheduler()
	})
}

// batchScratch is the working storage of processBatch. Only the scheduler
// goroutine runs processBatch, so one set, resliced per batch, serves
// every batch; nothing in it outlives the call that filled it.
type batchScratch struct {
	replies []*Response
	live    []int // the jobs that passed validation, as indexes into the batch
	// One plan's takes as PlanPairs emits them; commitAllocLocked copies
	// them out before the next plan overwrites them.
	sources []int
	takes   []float64
}

// scheduler drains the admission queue until the server closes: it takes
// the first waiting job, coalesces whatever else is already queued into a
// batch, and plans and commits the batch in one critical section. Jobs
// still queued at shutdown are left for Close to drain.
func (s *Server) scheduler() {
	defer s.wg.Done()
	batch := make([]*allocJob, 0, maxBatchSize)
	sc := &batchScratch{
		replies: make([]*Response, maxBatchSize),
		live:    make([]int, 0, maxBatchSize),
	}
	for {
		select {
		case <-s.closed:
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

// drainAllocQ empties the admission queue. Close calls it once the
// scheduler and every settle goroutine have exited, so nothing rejoins.
func (s *Server) drainAllocQ() {
	for {
		select {
		case job := <-s.allocQ:
			s.abandon(job)
		default:
			return
		}
	}
}

// abandon refuses a job the closing server will not plan, first settling
// and repaying the borrow it holds.
func (s *Server) abandon(job *allocJob) {
	if job.parentLease != 0 {
		s.mu.Lock()
		s.noteRepayLocked(job.parentLease)
		s.mu.Unlock()
		s.repayParent(job.link, job.parentLease)
	}
	job.resp <- errorf("grm: alloc: server closed")
}

// processBatch validates, plans, and commits one batch of allocation
// requests while holding s.mu, one request at a time: each is planned
// against the books the earlier ones left and committed before the next is
// planned (allocLocked).
//
// A request local capacity cannot cover, while a parent is attached,
// leaves without a reply to borrow the rest; one that holds a borrow and
// ends the batch without a lease has the repayment journaled here. Both
// round trips are settle's.
func (s *Server) processBatch(jobs []*allocJob, sc *batchScratch) {
	started := time.Now()
	replies := sc.replies[:len(jobs)]
	clear(replies)

	s.mu.Lock()
	live := sc.live[:0]
	for i, job := range jobs {
		if err := s.checkPrincipal(job.req.Principal); err != nil {
			replies[i] = errorf("grm: alloc: %v", err)
			continue
		}
		if err := checkQuantity("amount", job.req.Amount); err != nil {
			replies[i] = errorf("grm: alloc: %v", err)
			continue
		}
		live = append(live, i)
	}
	planner, err := s.currentPlannerLocked()
	if err != nil {
		for _, i := range live {
			replies[i] = errorResponse(err, "grm: alloc: %v", err)
		}
		live = live[:0]
	}
	parent, borrowing := s.parent, 0
	for _, i := range live {
		job := jobs[i]
		reply, err := s.allocLocked(planner, job, sc)
		switch {
		case err == nil:
			replies[i] = &Response{Alloc: reply}
			job.parentLease = 0 // the lease owns the borrow now
		case errors.Is(err, core.ErrInsufficient) && parent != nil && job.rounds < maxBorrowRounds:
			// What this plan saw, its own credit aside: the books less
			// the batch's commits so far.
			job.capacity = planner.Capacity(s.avail, job.req.Principal)
			borrowing++
		default:
			replies[i] = errorf("grm: alloc: %v", err)
		}
	}
	if len(live) > 0 {
		s.mBatches.Inc()
		s.mBatchedReqs.Add(int64(len(live) - borrowing)) // a borrower counts in the batch that answers it
		if size := float64(len(live)); size > s.mMaxBatch.Value() {
			s.mMaxBatch.Set(size) // scheduler is the only writer
		}
	}
	for _, job := range jobs {
		if job.parentLease != 0 {
			s.noteRepayLocked(job.parentLease)
		}
	}
	s.mu.Unlock()
	s.mBatchPlanNS.Add(time.Since(started).Nanoseconds())

	for i, job := range jobs {
		if replies[i] != nil && job.parentLease == 0 {
			job.resp <- replies[i]
			continue
		}
		// Parent round trips must not stall the next batch. The
		// goroutines are wg-tracked so Close still waits for them.
		s.wg.Add(1)
		go s.settle(job, parent, replies[i])
	}
}

// allocLocked plans one request against the availability view itself and,
// when the plan succeeds, commits it. Under s.mu nothing else moves the
// books, so planning and committing a batch's requests one after the other
// is the chain core.PlanBatch computes over a copy — each plan sees the
// availability the earlier commits left, debited under the same clamp —
// without the copy. A request that rejoined the queue with a borrowed
// credit is lent the credit on its own entry for the length of its plan, so
// no other plan draws on capacity that is not on the books; the entry is
// put back, not subtracted back, because (x + c) − c need not be x.
// Callers hold s.mu.
func (s *Server) allocLocked(planner *core.Allocator, job *allocJob, sc *batchScratch) (*AllocReply, error) {
	p := job.req.Principal
	own := s.avail[p]
	if job.parentLease != 0 {
		s.avail[p] = own + job.credit
	}
	var theta float64
	var err error
	sc.sources, sc.takes, theta, err = planner.PlanPairs(sc.sources[:0], sc.takes[:0], s.avail, p, job.req.Amount)
	s.avail[p] = own
	if err != nil {
		return nil, err
	}
	return s.commitAllocLocked(job.req, sc.sources, sc.takes, theta, job.link, job.parentLease), nil
}

// settle makes a job's parent round trips, with s.mu released. It returns
// the borrow the job still holds (processBatch journaled the repayment),
// then delivers refusal or, when there is none, borrows what the job's
// last plan fell short by, journals the borrow and puts the job back on
// the admission queue with the credit. Every way out hands the borrow on
// or repays it: a failed request leaves the federation's books untouched.
func (s *Server) settle(job *allocJob, parent *parentLink, refusal *Response) {
	defer s.wg.Done()
	if job.parentLease != 0 {
		s.repayParent(job.link, job.parentLease)
		job.parentLease = 0
	}
	if refusal != nil {
		job.resp <- refusal
		return
	}
	got, token, err := parent.borrow(job.req.Amount - job.capacity)
	if err != nil {
		job.resp <- errorf("grm: alloc: local capacity %g short of %g and parent refused: %v",
			job.capacity, job.req.Amount, err)
		return
	}
	job.credit, job.parentLease, job.link = got, token, parent
	job.rounds++
	s.mu.Lock()
	s.noteBorrowLocked(job.req.Principal, got, token)
	s.mu.Unlock()
	select {
	case s.allocQ <- job:
	case <-s.closed:
		s.abandon(job)
	}
}

// commitAllocLocked applies a solved plan: debits the availability view,
// mints the lease, and records the allocation in the write-ahead log.
// Callers hold s.mu. It returns the reply to send.
//
// The plan arrives as its pairs in the scheduler's scratch and is copied
// once, into two exact-size slices that the lease, the reply (and through
// it the tap) and the journal record share; nothing on the way from the
// admission queue to the client is sized by the population.
func (s *Server) commitAllocLocked(req *AllocRequest, planSources []int, planTakes []float64, theta float64, borrowedFrom *parentLink, parentLease int) *AllocReply {
	sources, takes := make([]int, len(planSources)), make([]float64, len(planTakes))
	copy(sources, planSources)
	copy(takes, planTakes)
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
	s.appendLocked(store.Record{
		Kind:        store.KindAlloc,
		Principal:   req.Principal,
		Amount:      req.Amount,
		Sources:     sources,
		Takes:       takes,
		Lease:       token,
		Expires:     expiryUnix(le.expires),
		ParentLease: parentLease,
	})
	return &AllocReply{Sources: sources, Takes: takes, Theta: theta, Lease: token, TTL: s.leaseTTL}
}

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
}
