package grm

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/grm/transport"
	"repro/internal/store"
	"repro/internal/vclock"
)

// Sharded fronts nshards independent GRM servers behind one wire
// endpoint, partitioning agreement and allocation state by principal
// subtree. Each shard is a complete Server — its own state mutex, its
// own batched allocation pipeline, and its own write-ahead log — so
// shards journal, recover, and coalesce batches independently; the
// router holds no books of its own.
//
// Routing rule: a principal belongs to the shard addressed by the FNV-1a
// hash of the first '/'-separated segment of its registered name, modulo
// nshards. Principals of one subtree ("clusterA/node7") therefore land
// on one shard, and sharing agreements — which must stay intra-shard —
// group naturally by subtree. A cross-shard ShareRequest is refused.
//
// Wire identifiers are global and stateless: principal, lease, and
// ticket tokens interleave the shard index into the shard-local token
// (global principal = shard + nshards·local, and analogously for leases
// and tickets), so the router can decode the owning shard from any
// identifier without a translation table — nothing to journal, nothing
// to recover.
type Sharded struct {
	nshards int
	// shards are the per-shard servers; each journals its own durable
	// state through its own WAL (attach with SetLogs / RecoverShards).
	shards []*Server // wal:sharded

	mu        sync.Mutex
	parent    *parentLink
	attaching bool

	tr        *transport.Server
	logger    *log.Logger
	closeOnce sync.Once
	closeErr  error
}

// NewSharded creates a sharded GRM with nshards sub-servers, each using
// the given LP configuration. logger may be nil to discard diagnostics.
func NewSharded(nshards int, cfg core.Config, logger *log.Logger) *Sharded {
	if nshards < 1 {
		nshards = 1
	}
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	shards := make([]*Server, nshards)
	for i := range shards {
		shards[i] = NewServer(cfg, logger)
	}
	g := &Sharded{nshards: nshards, shards: shards, logger: logger}
	g.tr = transport.NewServer(nil,
		transport.HandlerFunc(func(req any) any { return g.Handle(req.(*Request)) }),
		transport.Options{WriteTimeout: 30 * time.Second, Logger: logger, Codec: binaryCodec{}},
	)
	return g
}

// NumShards returns the shard count.
func (g *Sharded) NumShards() int { return g.nshards }

// Shard exposes one shard server (tests restart individual shards
// through it).
func (g *Sharded) Shard(i int) *Server { return g.shards[i] }

// ShardOf reports the shard the router assigns to a registered name, so
// test harnesses can place principals deliberately.
func (g *Sharded) ShardOf(name string) int { return g.shardOfName(name) }

// shardOfName routes a registered name: FNV-1a over the first
// '/'-separated segment, modulo the shard count, so a whole subtree
// shares a shard.
func (g *Sharded) shardOfName(name string) int {
	seg := name
	if i := strings.IndexByte(name, '/'); i >= 0 {
		seg = name[:i]
	}
	h := fnv.New32a()
	h.Write([]byte(seg))
	return int(h.Sum32() % uint32(g.nshards))
}

// Global/local identifier codecs. All three are stateless interleavings;
// the global stream of each shard is disjoint from every other shard's.

// globalPrincipal maps a shard-local principal id into the global space.
func (g *Sharded) globalPrincipal(shard, local int) int { return shard + g.nshards*local }

// splitPrincipal is the inverse of globalPrincipal.
func (g *Sharded) splitPrincipal(global int) (shard, local int) {
	return global % g.nshards, global / g.nshards
}

// globalLease maps a shard-local lease token (they start at 1) into the
// global space, keeping globals positive.
func (g *Sharded) globalLease(shard, local int) int { return (local-1)*g.nshards + shard + 1 }

// splitLease is the inverse of globalLease.
func (g *Sharded) splitLease(global int) (shard, local int) {
	return (global - 1) % g.nshards, (global-1)/g.nshards + 1
}

// globalTicket maps a shard-local ticket token (they start at 0) into
// the global space.
func (g *Sharded) globalTicket(shard, local int) int { return local*g.nshards + shard }

// splitTicket is the inverse of globalTicket.
func (g *Sharded) splitTicket(global int) (shard, local int) {
	return global % g.nshards, global / g.nshards
}

// globalSources renames a shard's reply sources into the global
// principal space. The interleaving is monotonic within a shard, so the
// result is still ascending, and a shard only takes from its own
// principals, so nothing else needs adding: the amounts are shared with
// the shard's reply, only the names are new.
func (g *Sharded) globalSources(shard int, local []int) []int {
	out := make([]int, len(local))
	for k, p := range local {
		out[k] = g.globalPrincipal(shard, p)
	}
	return out
}

// Handle routes one request envelope to its shard and translates the
// identifiers in the reply back into the global space.
func (g *Sharded) Handle(req *Request) *Response {
	switch {
	case req.Register != nil:
		shard := g.shardOfName(req.Register.Name)
		resp := g.shards[shard].Handle(req)
		if resp.Register != nil {
			resp.Register = &RegisterReply{Principal: g.globalPrincipal(shard, resp.Register.Principal)}
		}
		return resp
	case req.Report != nil:
		shard, local, err := g.principalShard(req.Report.Principal)
		if err != nil {
			return errorf("grm: report: %v", err)
		}
		r := *req.Report
		r.Principal = local
		return g.shards[shard].Handle(&Request{Report: &r})
	case req.Share != nil:
		fromShard, fromLocal, err := g.principalShard(req.Share.From)
		if err != nil {
			return errorf("grm: share: %v", err)
		}
		toShard, toLocal, err := g.principalShard(req.Share.To)
		if err != nil {
			return errorf("grm: share: %v", err)
		}
		if fromShard != toShard {
			return errorf("grm: share: principals %d and %d live on different shards (%d and %d); agreements must stay within one subtree",
				req.Share.From, req.Share.To, fromShard, toShard)
		}
		r := *req.Share
		r.From, r.To = fromLocal, toLocal
		resp := g.shards[fromShard].Handle(&Request{Share: &r})
		if resp.Share != nil {
			resp.Share = &ShareReply{Ticket: g.globalTicket(fromShard, resp.Share.Ticket)}
		}
		return resp
	case req.Revoke != nil:
		if req.Revoke.Ticket < 0 {
			return errorf("grm: revoke: unknown ticket %d", req.Revoke.Ticket)
		}
		shard, local := g.splitTicket(req.Revoke.Ticket)
		r := RevokeRequest{Ticket: local}
		return g.shards[shard].Handle(&Request{Revoke: &r})
	case req.Alloc != nil:
		shard, local, err := g.principalShard(req.Alloc.Principal)
		if err != nil {
			return errorf("grm: alloc: %v", err)
		}
		r := *req.Alloc
		r.Principal = local
		resp := g.shards[shard].Handle(&Request{Alloc: &r})
		if resp.Alloc != nil {
			resp.Alloc = &AllocReply{
				Sources: g.globalSources(shard, resp.Alloc.Sources),
				Takes:   resp.Alloc.Takes,
				Theta:   resp.Alloc.Theta,
				Lease:   g.globalLease(shard, resp.Alloc.Lease),
				TTL:     resp.Alloc.TTL,
			}
		}
		return resp
	case req.Release != nil:
		if req.Release.Lease < 1 {
			return errorf("grm: release: unknown lease %d", req.Release.Lease)
		}
		shard, local := g.splitLease(req.Release.Lease)
		r := ReleaseRequest{Lease: local}
		return g.shards[shard].Handle(&Request{Release: &r})
	case req.Renew != nil:
		if req.Renew.Lease < 1 {
			return errorf("grm: renew: unknown lease %d", req.Renew.Lease)
		}
		shard, local := g.splitLease(req.Renew.Lease)
		r := RenewRequest{Lease: local}
		return g.shards[shard].Handle(&Request{Renew: &r})
	case req.Caps != nil:
		return g.mergedCaps()
	case req.Peers != nil:
		return &Response{Peers: &PeersReply{Names: g.mergedNames()}}
	case req.Ping != nil:
		return &Response{Ping: &PingReply{}}
	default:
		return errorf("grm: empty request envelope")
	}
}

// principalShard decodes a global principal id and bounds-checks the
// local id against the owning shard.
func (g *Sharded) principalShard(global int) (shard, local int, err error) {
	if global < 0 {
		return 0, 0, fmt.Errorf("unknown principal %d", global)
	}
	shard, local = g.splitPrincipal(global)
	sh := g.shards[shard]
	sh.mu.Lock()
	n := len(sh.avail)
	sh.mu.Unlock()
	if local >= n {
		return 0, 0, fmt.Errorf("unknown principal %d", global)
	}
	return shard, local, nil
}

// mergedCaps assembles the global availability and capacity views from
// per-shard Caps replies. Capacities are exact per shard: agreements
// never cross shards, so no flow exists between them.
func (g *Sharded) mergedCaps() *Response {
	avail := []float64{}
	caps := []float64{}
	grow := func(n int) {
		for len(avail) < n {
			avail = append(avail, 0)
			caps = append(caps, 0)
		}
	}
	any := false
	for shard, sh := range g.shards {
		resp := sh.Handle(&Request{Caps: &CapsRequest{}})
		if resp.Err != "" {
			if resp.Code == CodeNoPrincipals {
				continue // empty shard; others may still answer
			}
			return resp
		}
		any = true
		for local := range resp.Caps.Available {
			gp := g.globalPrincipal(shard, local)
			grow(gp + 1)
			avail[gp] = resp.Caps.Available[local]
			caps[gp] = resp.Caps.Capacities[local]
		}
	}
	if !any {
		return errorResponse(ErrNoPrincipals, "grm: caps: %v", ErrNoPrincipals)
	}
	return &Response{Caps: &CapsReply{Available: avail, Capacities: caps}}
}

// mergedNames assembles the global principal-name table. Holes (global
// ids no shard has assigned yet) come out as empty strings.
func (g *Sharded) mergedNames() []string {
	names := []string{}
	for shard, sh := range g.shards {
		sh.mu.Lock()
		local := append([]string(nil), sh.names...)
		sh.mu.Unlock()
		for i, name := range local {
			gp := g.globalPrincipal(shard, i)
			for len(names) <= gp {
				names = append(names, "")
			}
			names[gp] = name
		}
	}
	return names
}

// Serve accepts LRM connections on l until Close, starting every shard's
// lease reaper and batch scheduler.
func (g *Sharded) Serve(l net.Listener) error {
	for _, sh := range g.shards {
		sh.startBackground()
	}
	return g.tr.Serve(l)
}

// ListenAndServe listens on addr and serves until Close.
func (g *Sharded) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("grm: listen %s: %w", addr, err)
	}
	return g.Serve(l)
}

// Addr returns the listener address (once Serve has been called).
func (g *Sharded) Addr() net.Addr { return g.tr.Addr() }

// Close stops the router's accept loop and closes every shard (which
// flushes each per-shard WAL). Safe to call more than once.
func (g *Sharded) Close() error {
	g.closeOnce.Do(func() {
		g.closeErr = g.tr.Close()
		for _, sh := range g.shards {
			if err := sh.Close(); err != nil && g.closeErr == nil {
				g.closeErr = err
			}
		}
		g.mu.Lock()
		p := g.parent
		g.parent = nil
		g.mu.Unlock()
		if p != nil {
			p.lrm.Close()
		}
	})
	return g.closeErr
}

// SetLeaseTTL forwards the lease TTL to every shard. Call before Serve.
func (g *Sharded) SetLeaseTTL(ttl time.Duration) {
	for _, sh := range g.shards {
		sh.SetLeaseTTL(ttl)
	}
}

// SetClock forwards the clock to every shard. Call before Serve.
func (g *Sharded) SetClock(c vclock.Clock) {
	for _, sh := range g.shards {
		sh.SetClock(c)
	}
}

// SetTimeouts configures the router's per-connection deadlines.
func (g *Sharded) SetTimeouts(idle, write time.Duration) {
	g.tr.SetTimeouts(idle, write)
}

// SetLogs attaches one write-ahead log per shard (logs[i] records shard
// i). Shards journal independently: no cross-shard ordering exists in
// the logs, and none is needed — the id interleaving keeps their token
// spaces disjoint. Call before Serve.
func (g *Sharded) SetLogs(logs []store.Log) error {
	if len(logs) != g.nshards {
		return fmt.Errorf("grm: SetLogs: %d logs for %d shards", len(logs), g.nshards)
	}
	for i, sh := range g.shards {
		sh.SetLog(logs[i])
	}
	return nil
}

// RecoverShards replays one log per shard, each into its own shard
// server, then attaches the logs for further recording. Shards recover
// independently — a restarted sharded GRM replays its shards one by one,
// and a single shard can even be restarted and recovered in place (see
// the shard restart tests). Call before Serve.
func (g *Sharded) RecoverShards(logs []store.Log) error {
	if len(logs) != g.nshards {
		return fmt.Errorf("grm: RecoverShards: %d logs for %d shards", len(logs), g.nshards)
	}
	for i, sh := range g.shards {
		if err := sh.Recover(logs[i]); err != nil {
			return fmt.Errorf("grm: shard %d: %w", i, err)
		}
	}
	return nil
}

// Compact folds every shard's log into one snapshot record each.
func (g *Sharded) Compact() error {
	for i, sh := range g.shards {
		if err := sh.Compact(); err != nil {
			return fmt.Errorf("grm: shard %d: %w", i, err)
		}
	}
	return nil
}

// AttachParent registers this sharded GRM as one LRM of a parent GRM:
// the parent sees the whole sharded cluster as a single principal. All
// shards borrow and repay through the one shared link (the LRM client is
// safe for concurrent use), so the parent's books stay per-cluster.
func (g *Sharded) AttachParent(addr, name string) error {
	return g.AttachParentConfig(addr, name, DefaultDialConfig())
}

// AttachParentConfig is AttachParent with explicit dial behavior.
func (g *Sharded) AttachParentConfig(addr, name string, cfg DialConfig) error {
	g.mu.Lock()
	if g.parent != nil || g.attaching {
		g.mu.Unlock()
		return fmt.Errorf("grm: parent already attached")
	}
	g.attaching = true
	g.mu.Unlock()

	lrm, err := DialWithConfig(addr, name, g.aggregateAvail(), cfg)
	g.mu.Lock()
	g.attaching = false
	if err != nil {
		g.mu.Unlock()
		return fmt.Errorf("grm: attach parent: %w", err)
	}
	link := &parentLink{lrm: lrm}
	g.parent = link
	g.mu.Unlock()
	for _, sh := range g.shards {
		sh.mu.Lock()
		sh.parent = link
		sh.mu.Unlock()
	}
	// Reports that raced the dial are folded in by a fresh aggregate.
	if err := lrm.Report(g.aggregateAvail()); err != nil {
		g.detachLink(link)
		return fmt.Errorf("grm: attach parent: refresh aggregate: %w", err)
	}
	return nil
}

// detachLink removes a link from the router and every shard, closing it.
func (g *Sharded) detachLink(link *parentLink) {
	g.mu.Lock()
	if g.parent == link {
		g.parent = nil
	}
	g.mu.Unlock()
	for _, sh := range g.shards {
		sh.mu.Lock()
		if sh.parent == link {
			sh.parent = nil
		}
		sh.mu.Unlock()
	}
	link.lrm.Close()
}

// Parent returns the shared parent LRM (nil when not attached).
func (g *Sharded) Parent() *LRM {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.parent == nil {
		return nil
	}
	return g.parent.lrm
}

// aggregateAvail sums availability across every shard.
func (g *Sharded) aggregateAvail() float64 {
	var total float64
	for _, sh := range g.shards {
		sh.mu.Lock()
		for _, a := range sh.avail {
			total += a
		}
		sh.mu.Unlock()
	}
	return total
}

// ReportUpstream sends the cluster's aggregate free capacity to the
// parent GRM as one report.
func (g *Sharded) ReportUpstream() error {
	g.mu.Lock()
	p := g.parent
	g.mu.Unlock()
	if p == nil {
		return fmt.Errorf("grm: no parent attached")
	}
	return p.lrm.Report(g.aggregateAvail())
}

// Status merges every shard's status into one view: counters sum,
// principals carry global ids, and the federation section aggregates the
// per-shard borrow balances (each shard borrows through the shared
// parent link, so the parent lease tokens are disjoint).
func (g *Sharded) Status() (*Status, error) {
	out := &Status{}
	parts := make([][]PrincipalStatus, g.nshards)
	total, deepest := 0, 0
	for shard, sh := range g.shards {
		st, err := sh.Status()
		if err != nil {
			return nil, fmt.Errorf("grm: shard %d: %w", shard, err)
		}
		parts[shard] = st.Principals
		total += len(st.Principals)
		deepest = max(deepest, len(st.Principals))
		out.Leases += st.Leases
		out.Agreements += st.Agreements
		out.Batches += st.Batches
		out.BatchedRequests += st.BatchedRequests
		if st.MaxBatch > out.MaxBatch {
			out.MaxBatch = st.MaxBatch
		}
		out.BatchPlanNanos += st.BatchPlanNanos
		out.QueueDepth += st.QueueDepth
		out.WalAppendErrors += st.WalAppendErrors
		out.Federation.Attached = out.Federation.Attached || st.Federation.Attached
		out.Federation.TotalBorrowed += st.Federation.TotalBorrowed
		out.Federation.Borrows = append(out.Federation.Borrows, st.Federation.Borrows...)
	}
	// A global id is local·nshards + shard, so walking local ids outermost
	// and shards innermost visits the principals in ascending global order:
	// each row goes straight to its place, no sort.
	if total > 0 {
		out.Principals = make([]PrincipalStatus, 0, total)
	}
	for local := 0; local < deepest; local++ {
		for shard, part := range parts {
			if local < len(part) {
				ps := part[local]
				ps.Principal = g.globalPrincipal(shard, local)
				out.Principals = append(out.Principals, ps)
			}
		}
	}
	return out, nil
}

// ServeHTTP exposes the merged status as JSON, mirroring
// (*Server).ServeHTTP so a sharded GRM plugs into the same monitoring.
func (g *Sharded) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	st, err := g.Status()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(st); err != nil {
		g.logger.Printf("grm: sharded status encode: %v", err)
	}
}
