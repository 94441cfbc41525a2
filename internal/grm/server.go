package grm

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/grm/transport"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/vclock"
)

// The GRM is split into three layers:
//
//	transport (internal/grm/transport)  — connections, hello + frames, deadlines
//	service   (this package)            — handlers, the batched alloc pipeline
//	state     (internal/store)          — the write-ahead log and snapshots
//
// This file is the service layer's lifecycle: construction, configuration,
// Serve/Close, and the dispatch table the transport drives. The request
// handlers live in handlers.go, the allocation pipeline in alloc.go, and
// the durability layer's integration (recording, recovery, compaction) in
// recovery.go.

// lease is one outstanding allocation: the takes to return on release
// (takes[k] from principal sources[k], ascending — the slices the reply
// and the journal record share, never written after commit), an optional
// expiry, and the parent GRM's lease token when part of the allocation
// was borrowed through the federation.
type lease struct {
	sources     []int
	takes       []float64
	expires     time.Time   // zero when leases do not expire
	parentLink  *parentLink // federation link the borrow came through; nil when local
	parentLease int         // parent lease token to repay; 0 when nothing borrowed
}

// shareInfo is one wire-created agreement as compacted snapshots carry it
// (ticket tokens index the history), and the link that threads its
// issuer's live shares in token order.
type shareInfo struct {
	agreement.Share
	next    int32 // token of the issuer's next live share; -1 for none
	revoked bool
}

// shareList is one principal's live issued shares, oldest and newest
// token, -1 when there is none: what a revoke walks to re-derive a cell.
type shareList struct{ first, last int32 }

// Server is the Global Resource Manager: it keeps sharing agreements as a
// declared base plus the wire's share history, tracks availability reported
// by LRMs, and answers allocation requests with the LP scheduler.
type Server struct {
	cfg core.Config

	// Fields marked wal:journaled are the durable state: every mutation
	// must happen in a *Locked helper whose call graph reaches
	// appendLocked, so that recovery replays it (enforced by
	// sharingvet/waljournal). Fields marked wal:derived are rebuilt from
	// the journaled books (never replayed), but still shadow them, so
	// writes must stay inside *Locked helpers too.
	mu        sync.Mutex
	declared  *agreement.Base // a loaded snapshot's S, A and face values; nil when none; wal:journaled
	shareHist []shareInfo     // ticket token -> wire parameters; wal:journaled
	issued    []shareList     // per principal: its live shares in shareHist; wal:derived
	avail     []float64       // wal:journaled
	reported  []float64       // last reported capacity per principal (release cap); wal:journaled
	names     []string        // wal:journaled
	byName    map[string]int  // names inverted, so a register is one lookup; wal:derived
	planner   *core.Allocator // rebuilt lazily after structural changes; wal:derived
	// plannerErr is why the last rebuild of a nil planner was refused (an
	// agreement graph past the exact-closure budget), kept until the next
	// agreement mutation so the refusal is paid once and not by every
	// request that finds no planner.
	plannerErr error // wal:derived
	parent     *parentLink
	attaching  bool           // AttachParent reservation held across the parent dial
	leases     map[int]*lease // wal:journaled
	nextLease  int            // wal:journaled
	expired    []expiry       // the reaper's scratch: one pass's expired leases in reap order; wal:derived
	liveShares int            // unrevoked entries of shareHist, what Status.Agreements reads; wal:derived
	// borrows is this level's federation borrow balance: parent lease
	// token → amount still outstanding at the parent. In a multi-level GRM
	// tree every node carries its own balance, so Status can report the
	// borrows per level instead of flattening the tree.
	borrows map[int]float64 // wal:journaled

	// plannerBuilds counts full planner builds, refused ones included
	// (currentPlannerLocked's slow path); registration, share and revoke
	// churn should leave it where the first plan put it.
	plannerBuilds int

	// Durability (recovery.go): every committed transition is appended to
	// log as a store.Record with a strictly increasing seq. nil = volatile.
	log store.Log
	seq uint64
	rec store.Record // appendLocked's scratch: the record being journaled
	// walAppendErrors counts records the log refused or failed to write;
	// each is a transition the next recovery will not see.
	walAppendErrors uint64
	declaredSnap    []byte // preloaded agreement snapshot JSON, for compaction; wal:journaled

	// clock drives the lease lifecycle (expiry stamps, the reaper's
	// ticker). Real time by default; the model-based testing harness and
	// the lease tests inject a vclock.Virtual for determinism. Connection
	// deadlines stay on real time — they are compared by the kernel.
	clock vclock.Clock

	// tap, when set, observes every dispatched request/response pair
	// together with a post-operation snapshot of the books. It feeds the
	// scenario recorder (internal/scenario, grmd -record).
	tap Tap

	leaseTTL  time.Duration // 0 = leases never expire
	reapEvery time.Duration

	// Batched allocation pipeline (alloc.go): the transport's connection
	// goroutines enqueue alloc jobs, one scheduler goroutine (started by
	// Serve, or by the first alloc on a server driven without one)
	// plans and commits them one after the other under one hold of mu and
	// replies per request.
	allocQ     chan *allocJob
	schedStart sync.Once
	// jobs is a free list of answered jobs, reply channel included, as
	// many as the admission queue holds; unlike a sync.Pool, a collection
	// does not empty it.
	jobs chan *allocJob

	mQueueDepth  metrics.Gauge   // current admission-queue depth
	mBatches     metrics.Counter // batches committed
	mBatchedReqs metrics.Counter // alloc requests served through batches
	mMaxBatch    metrics.Gauge   // largest batch so far (scheduler-only writer)
	mBatchPlanNS metrics.Counter // cumulative nanoseconds of batch critical sections: validate, solve, commit, journal

	tr         *transport.Server
	wg         sync.WaitGroup
	closed     chan struct{}
	closeOnce  sync.Once
	closeErr   error
	reaperOnce sync.Once
	logger     *log.Logger
}

// NewServer creates a GRM whose LP allocator uses the given configuration
// (transitivity level, component LP). logger may be nil to discard
// diagnostics. Leases do not expire and connections have no idle limit
// until SetLeaseTTL / SetTimeouts say otherwise.
func NewServer(cfg core.Config, logger *log.Logger) *Server {
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	s := &Server{
		cfg:       cfg,
		closed:    make(chan struct{}),
		logger:    logger,
		byName:    map[string]int{},
		leases:    map[int]*lease{},
		borrows:   map[int]float64{},
		nextLease: 1,
		allocQ:    make(chan *allocJob, allocQueueCap),
		jobs:      make(chan *allocJob, allocQueueCap),
		clock:     vclock.Real{},
	}
	s.tr = serveRequests(s.Handle, logger)
	return s
}

// SetClock replaces the clock driving lease expiry and the reaper.
// Injecting a vclock.Virtual makes the whole lease lifecycle
// deterministic: leases expire exactly when the test advances the clock
// past their TTL, never because a wall-clock sleep ran long. Call before
// Serve.
func (s *Server) SetClock(c vclock.Clock) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock = c
}

// SetLeaseTTL makes every lease granted from now on expire after ttl
// unless renewed or released; a background reaper (started by Serve)
// returns expired takes to the pool and repays any federation borrow.
// ttl <= 0 disables expiry. Call before Serve.
func (s *Server) SetLeaseTTL(ttl time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ttl <= 0 {
		s.leaseTTL, s.reapEvery = 0, 0
		return
	}
	s.leaseTTL = ttl
	s.reapEvery = max(ttl/4, time.Millisecond)
}

// SetTimeouts configures per-connection deadlines: idle is the maximum
// quiet time between requests on an LRM connection (0 = unlimited), write
// the per-response write deadline (0 = none).
func (s *Server) SetTimeouts(idle, write time.Duration) {
	s.tr.SetTimeouts(idle, write)
}

// Serve accepts LRM connections on l until Close is called. It always
// returns a non-nil error (net.ErrClosed after a clean shutdown). Serving
// starts the lease reaper (when a TTL is configured) and the batch
// scheduler that drains the allocation admission queue.
func (s *Server) Serve(l net.Listener) error {
	s.startBackground()
	return s.tr.Serve(l)
}

// startBackground launches the lease reaper (when a TTL is configured)
// and the batch scheduler. Serve calls it; the shard router calls it
// directly because shard servers handle requests without listeners of
// their own. Idempotent.
func (s *Server) startBackground() {
	s.mu.Lock()
	ttl := s.leaseTTL
	s.mu.Unlock()
	if ttl > 0 {
		s.reaperOnce.Do(func() {
			s.wg.Add(1)
			go s.reaper()
		})
	}
	s.startScheduler()
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("grm: listen %s: %w", addr, err)
	}
	return s.Serve(l)
}

// Addr returns the listener address (once Serve has been called).
func (s *Server) Addr() net.Addr { return s.tr.Addr() }

// Close stops the accept loop, severs live LRM connections, waits for
// in-flight handlers, the batch scheduler with its federation round
// trips, and the lease reaper, repays the borrow of any request still
// queued, then flushes the write-ahead log. Safe to call more than once;
// repeated calls return the first call's error.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.schedStart.Do(func() {}) // a scheduler not yet started never starts
		close(s.closed)
		s.closeErr = s.tr.Close()
		s.wg.Wait()
		s.drainAllocQ()
		s.mu.Lock()
		lg := s.log
		s.mu.Unlock()
		if lg != nil {
			if err := lg.Sync(); err != nil {
				s.logger.Printf("grm: close: wal sync: %v", err)
			}
		}
	})
	return s.closeErr
}

// LoadSnapshot declares the server's agreements from a snapshot (cmd/grmd
// -agreements). Declared principals are pre-registered; LRMs that later
// register under a declared name bind to the declared principal. Call
// before Serve.
func (s *Server) LoadSnapshot(snap *agreement.Snapshot) error {
	findings := snap.Validate()
	if err := agreement.FindingsError(findings); err != nil {
		return fmt.Errorf("grm: LoadSnapshot: %w", err)
	}
	for _, f := range findings {
		s.logger.Printf("grm: snapshot %s", f)
	}
	var raw bytes.Buffer
	if err := snap.WriteJSON(&raw); err != nil {
		return fmt.Errorf("grm: LoadSnapshot: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.installSnapshotLocked(snap, raw.Bytes()); err != nil {
		return err
	}
	s.appendLocked(store.Record{Kind: store.KindSnapshotLoad, Snapshot: raw.Bytes()})
	s.logger.Printf("grm: loaded snapshot with %d principals", len(s.names))
	return nil
}

// installSnapshotLocked declares a validated snapshot's agreements — its
// System lives only here, the books keep its agreement.Base — and seeds the
// books from its declared capacities. raw is the snapshot's JSON, kept for
// compaction. It appends nothing itself: both callers journal the whole
// snapshot — LoadSnapshot appends the KindSnapshotLoad record right after,
// and replay re-derives the state from that record. Callers hold s.mu.
//
//lint:ignore sharingvet/waljournal callers journal the full snapshot as one KindSnapshotLoad record
func (s *Server) installSnapshotLocked(snap *agreement.Snapshot, raw []byte) error {
	sys, principals, err := snap.Restore()
	if err != nil {
		return err
	}
	if len(s.names) > 0 {
		return fmt.Errorf("grm: LoadSnapshot: principals already registered")
	}
	m, err := sys.SparseMatrices(agreement.General)
	if err != nil {
		return fmt.Errorf("grm: LoadSnapshot: %w", err)
	}
	n := len(principals)
	s.declared = &agreement.Base{S: m.S, A: m.A, Face: make([]float64, n)}
	s.names, s.byName = make([]string, n), make(map[string]int, n)
	s.issued = make([]shareList, n)
	for name, pid := range principals {
		s.names[pid], s.byName[name] = name, int(pid)
		s.declared.Face[pid] = sys.Currency(sys.CurrencyOf(pid)).FaceValue
		s.issued[pid] = shareList{-1, -1}
	}
	// Seed availability from the declared "general" capacities.
	s.avail = append([]float64(nil), m.V...)
	s.reported = append([]float64(nil), m.V...)
	s.declaredSnap = append([]byte(nil), raw...)
	s.dropPlannerLocked()
	return nil
}

// TapEvent is one observed operation: the wire envelopes plus a snapshot
// of the books taken right after the operation committed. Under
// sequential traffic (one outstanding request) the snapshot is exactly
// the post-operation state; under pipelined concurrent traffic events
// from different connections may interleave between commit and snapshot,
// which is why recorded bundles from concurrent capture should be
// re-blessed before use (see internal/scenario).
type TapEvent struct {
	// Now is the server clock's reading at snapshot time.
	Now time.Time
	// Req and Resp are the dispatched envelopes. The tap must not retain
	// or mutate them past its return.
	Req  *Request
	Resp *Response
	// Avail is a copy of the availability view after the operation.
	Avail []float64
	// Leases is the number of outstanding leases after the operation.
	Leases int
}

// Tap observes committed operations for recording. It is called outside
// the server's state lock and must not call back into the server except
// for read-only accessors.
type Tap func(TapEvent)

// SetTap installs (or, with nil, removes) the operation tap. Call before
// Serve for a complete capture.
func (s *Server) SetTap(tap Tap) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tap = tap
}

// Handle serves one request envelope, off a connection or in-process
// (the shard router and large-scale model tests drive servers through it
// without paying a transport round trip), and feeds the record tap, when
// one is installed, with the response and the post-operation books.
func (s *Server) Handle(req *Request) *Response {
	resp := s.dispatchInner(req)
	s.mu.Lock()
	tap := s.tap
	if tap == nil {
		s.mu.Unlock()
		return resp
	}
	ev := TapEvent{
		Now:    s.clock.Now(),
		Req:    req,
		Resp:   resp,
		Avail:  append([]float64(nil), s.avail...),
		Leases: len(s.leases),
	}
	s.mu.Unlock()
	tap(ev)
	return resp
}

// dispatchInner serves one decoded request envelope. Allocation and
// release manage the lock themselves (allocation runs through the
// batching pipeline, release may perform a parent-GRM round trip);
// everything else runs under one critical section.
func (s *Server) dispatchInner(req *Request) *Response {
	if req.Alloc != nil {
		return s.alloc(req.Alloc)
	}
	if req.Release != nil {
		return s.release(req.Release)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case req.Register != nil:
		return s.register(req.Register)
	case req.Report != nil:
		return s.report(req.Report)
	case req.Share != nil:
		return s.share(req.Share)
	case req.Revoke != nil:
		return s.revoke(req.Revoke)
	case req.Renew != nil:
		return s.renew(req.Renew)
	case req.Caps != nil:
		return s.caps()
	case req.Peers != nil:
		return &Response{Peers: &PeersReply{Names: append([]string(nil), s.names...)}}
	case req.Ping != nil:
		return pingAck
	default:
		return errorf("grm: empty request envelope")
	}
}

// currentPlannerLocked rebuilds the allocator when no patch covered the
// last structural change (snapshot install, replayed state, or a refused
// patch), folding every live share in token order over the declared base.
// Registration, share and revoke churn keep s.planner patched, so this
// full rebuild — an exact closure of the whole graph — is the slow path. A refused build (up to
// the closure budget's ~0.7 s under s.mu) is remembered until an agreement
// changes, so later callers get the same error without building. Callers
// hold s.mu.
func (s *Server) currentPlannerLocked() (*core.Allocator, error) {
	if len(s.avail) == 0 {
		return nil, ErrNoPrincipals
	}
	if s.planner != nil {
		return s.planner, nil
	}
	if s.plannerErr != nil {
		return nil, s.plannerErr
	}
	s.plannerBuilds++
	f := s.declared.Fold(len(s.avail))
	for _, sh := range s.shareHist {
		if !sh.revoked {
			f.Add(sh.Share)
		}
	}
	S, A := f.Build()
	var err error
	if s.planner, err = core.NewAllocator(S, A, s.cfg); err != nil {
		s.planner, s.plannerErr = nil, err
		return nil, err
	}
	return s.planner, nil
}

// dropPlannerLocked discards the cached planner, and any remembered
// refusal to build one, after a change no incremental patch covers; the
// next plan rebuilds. Callers hold s.mu.
func (s *Server) dropPlannerLocked() {
	s.planner, s.plannerErr = nil, nil
}

// logs reports whether the logger writes anywhere. It guards the
// per-operation lines: Printf boxes its arguments at the call, which costs
// allocations even when the logger discards them.
func (s *Server) logs() bool { return s.logger.Writer() != io.Discard }

func (s *Server) checkPrincipal(id int) error {
	if id < 0 || id >= len(s.avail) {
		return fmt.Errorf("unknown principal %d", id)
	}
	return nil
}
