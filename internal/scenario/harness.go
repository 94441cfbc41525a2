package scenario

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/grm"
	"repro/internal/grm/faultnet"
	"repro/internal/grm/transport"
	"repro/internal/store"
	"repro/internal/vclock"
)

// Topology declares the GRM tree a Harness runs: its leaves, the parent
// levels above them and the lease TTL, all on one virtual clock.
type Topology struct {
	// Config is the leaves' allocator configuration.
	Config core.Config
	// Shards 0 makes each leaf one grm.Server; n makes it a grm.Sharded
	// of n shards. Each server or shard journals into its own
	// store.MemLog, the medium Restart recovers from.
	Shards int
	// TTL is the leaves' lease TTL (0: leases never expire). Parents
	// never expire leases: their borrows end only by repayment.
	TTL time.Duration
	// Tap is installed on every single-server leaf, restarts included.
	Tap grm.Tap
	// Parents are raised at Start, nearest level first; the leaves are
	// then its first level's Children, else there is one leaf.
	Parents []Level
}

// Level is one parent level of a GRM tree.
type Level struct {
	Config core.Config
	// Width is how many servers the level runs (0 means 1).
	Width int
	// Children names each server of the level below at this level; they
	// attach in consecutive blocks, child j at server j·Width/len(Children).
	Children []string
	// Siblings register at every server of the level, and each grants its
	// relative share to every child attaching there.
	Siblings []SiblingSpec
}

// Server is what a harness level runs: a *grm.Server, or a *grm.Sharded
// at the leaves.
type Server interface {
	Serve(net.Listener) error
	Close() error
	Handle(*grm.Request) *grm.Response
	Status() (*grm.Status, error)
	SetLeaseTTL(time.Duration)
	AttachParentConfig(addr, name string, cfg grm.DialConfig) error
	Parent() *grm.LRM
	ReportUpstream() error
	Compact() error
}

// Harness runs one GRM tree on loopback. It builds the servers, parent
// levels and fault-injecting LRM dials a Topology declares, performs the
// operations no LRM call expresses (restart from the log, upstream
// report, clock advance), and checks the books of every level. Replay,
// modeltest.RunCluster and modeltest.RunTree are op sources over it.
// A Harness is driven from one goroutine.
type Harness struct {
	top    Topology
	vc     *vclock.Virtual
	levels []Level
	// tiers[0] are the leaves, tiers[k] the servers of parent level k.
	tiers [][]*member
}

// member is one server of the tree with what the harness dialed to it.
type member struct {
	srv   Server
	addr  string
	logs  []store.Log   // a leaf's durable medium, one per shard
	nodes map[int]*Node // a leaf's wire LRMs by principal
	sibs  []*grm.LRM    // a parent's sibling principals
}

// Node is one wire LRM the harness dialed. Every connection it dials is
// surfaced, so Kill can sever the live one.
type Node struct {
	*grm.LRM
	conns chan *faultnet.Conn
	live  *faultnet.Conn
}

// Start builds and serves the topology.
func Start(top Topology) (_ *Harness, err error) {
	h := &Harness{top: top, vc: vclock.NewVirtual(time.Unix(1_000_000_000, 0)), tiers: [][]*member{nil}}
	defer func() {
		if err != nil {
			h.Close()
		}
	}()
	leaves := 1
	if len(top.Parents) > 0 {
		leaves = len(top.Parents[0].Children)
	}
	for i := 0; i < leaves; i++ {
		lf := &member{addr: loopback, nodes: map[int]*Node{}, logs: make([]store.Log, max(top.Shards, 1))}
		for s := range lf.logs {
			lf.logs[s] = store.NewMemLog()
		}
		h.tiers[0] = append(h.tiers[0], lf)
		if err := h.newLeaf(lf); err != nil {
			return nil, err
		}
		if err := h.startLeaf(i); err != nil {
			return nil, err
		}
	}
	if len(top.Parents) > 0 {
		if err := h.Attach(top.Parents); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// newLeaf builds a leaf's server on the harness clock, recovered from the
// leaf's logs.
func (h *Harness) newLeaf(lf *member) error {
	if h.top.Shards > 0 {
		g := grm.NewSharded(h.top.Shards, h.top.Config, nil)
		g.SetClock(h.vc)
		lf.srv = g
		return g.RecoverShards(lf.logs)
	}
	s := grm.NewServer(h.top.Config, nil)
	s.SetClock(h.vc)
	s.SetTap(h.top.Tap)
	lf.srv = s
	return s.Recover(lf.logs[0])
}

// loopback is where a server the harness starts first listens: a fresh
// loopback port. A restarted leaf reclaims its old port instead, for its
// nodes' reconnects.
const loopback = "127.0.0.1:0"

// startLeaf serves leaf i on its address, arms the lease TTL, and
// attaches the leaf to its parent when one is raised.
func (h *Harness) startLeaf(i int) error {
	lf := h.tiers[0][i]
	addr, err := serve(lf.srv, lf.addr)
	if err != nil {
		return err
	}
	lf.addr = addr
	if h.top.TTL > 0 {
		// Serve starts the background reaper only when a TTL is already
		// set, and a completed hello proves Serve is past that point. So
		// the TTL is armed only now: expiry happens only through explicit
		// Reap calls, and their counts are exact.
		if err := hello(addr); err != nil {
			return fmt.Errorf("scenario: hello %s: %w", addr, err)
		}
		lf.srv.SetLeaseTTL(h.top.TTL)
	}
	if len(h.tiers) > 1 {
		return h.attach(0, i)
	}
	return nil
}

// serve listens on addr and serves srv there.
func serve(srv Server, addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("scenario: listen %s: %w", addr, err)
	}
	go srv.Serve(l)
	return l.Addr().String(), nil
}

// hello completes one protocol hello with the server at addr.
func hello(addr string) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := transport.WriteHello(c, transport.Version); err != nil {
		return err
	}
	_, err = transport.ReadHello(c)
	return err
}

// dialConfig is how every LRM of the harness dials: fast retries on
// loopback, each connection sent to conns (nil drops them).
func dialConfig(conns chan *faultnet.Conn) grm.DialConfig {
	return grm.DialConfig{
		Timeout:    10 * time.Second,
		RetryMax:   5,
		Backoff:    time.Millisecond,
		MaxBackoff: 4 * time.Millisecond,
		Dialer:     faultnet.Dialer(nil, conns),
	}
}

// Attach raises parent levels above the leaves, nearest level first. It
// builds them from the top down: each server registers its siblings,
// then attaches to the level above and takes that level's sibling shares;
// the leaves attach last.
func (h *Harness) Attach(levels []Level) error {
	if len(h.tiers) > 1 {
		return fmt.Errorf("scenario: attach: parent already attached")
	}
	h.levels = levels
	h.tiers = append(h.tiers, make([][]*member, len(levels))...)
	for k := len(levels); k >= 0; k-- {
		if k > 0 {
			if err := h.raise(k, levels[k-1]); err != nil {
				return err
			}
		}
		for j := 0; k < len(levels) && j < len(h.tiers[k]); j++ { // the top has no parent
			if err := h.attach(k, j); err != nil {
				return err
			}
		}
	}
	return nil
}

// raise builds and serves tier k, parent level lv, with its siblings.
func (h *Harness) raise(k int, lv Level) error {
	for range max(lv.Width, 1) {
		srv := grm.NewServer(lv.Config, nil)
		srv.SetClock(h.vc)
		m := &member{srv: srv}
		h.tiers[k] = append(h.tiers[k], m)
		var err error
		if m.addr, err = serve(srv, loopback); err != nil {
			return err
		}
		for _, sib := range lv.Siblings {
			lrm, err := grm.DialWithConfig(m.addr, sib.Name, sib.Capacity, dialConfig(nil))
			if err != nil {
				return fmt.Errorf("scenario: attach sibling %q: %w", sib.Name, err)
			}
			m.sibs = append(m.sibs, lrm)
		}
	}
	return nil
}

// attach registers server j of tier k at its parent in tier k+1, then
// grants it the siblings' shares there.
func (h *Harness) attach(k, j int) error {
	lv, child := h.levels[k], h.tiers[k][j].srv
	up := h.tiers[k+1][j*len(h.tiers[k+1])/len(lv.Children)]
	if err := child.AttachParentConfig(up.addr, lv.Children[j], dialConfig(nil)); err != nil {
		return fmt.Errorf("scenario: attach %q: %w", lv.Children[j], err)
	}
	pid := child.Parent().Principal()
	for s, sib := range lv.Siblings {
		if sib.Fraction == 0 {
			continue
		}
		if _, err := up.sibs[s].ShareRelative(pid, sib.Fraction); err != nil {
			return fmt.Errorf("scenario: attach share %q: %w", sib.Name, err)
		}
	}
	return nil
}

// Leaf returns leaf i's current server (a restart replaces it).
func (h *Harness) Leaf(i int) Server { return h.tiers[0][i].srv }

// Dial registers a wire LRM at leaf i. A node already bound to the
// principal it registers as (a re-register under the same name) is
// closed and replaced.
func (h *Harness) Dial(i int, name string, capacity float64) (*Node, error) {
	nodes := h.tiers[0][i].nodes
	// Room for the dials between two kills, a connect and its retries;
	// the dialer drops any past it.
	n := &Node{conns: make(chan *faultnet.Conn, 8)}
	lrm, err := grm.DialWithConfig(h.tiers[0][i].addr, name, capacity, dialConfig(n.conns))
	if err != nil {
		return nil, err
	}
	n.LRM = lrm
	if old := nodes[lrm.Principal()]; old != nil {
		old.Close()
	}
	nodes[lrm.Principal()] = n
	return n, nil
}

// Node returns the node acting for principal p at leaf i or, when p has
// none, the lowest-id node: the one a request naming no principal goes
// through. nil when no node is registered.
func (h *Harness) Node(i, p int) *Node {
	nodes := h.tiers[0][i].nodes
	if n := nodes[p]; n != nil {
		return n
	}
	best := -1
	for id := range nodes {
		if best < 0 || id < best {
			best = id
		}
	}
	return nodes[best]
}

// Kill severs the node's live connection, so its next request reconnects
// transparently (re-register, then replay its last report). False when
// the node has no live connection.
func (n *Node) Kill() bool {
	for len(n.conns) > 0 {
		n.live = <-n.conns // only the dialer sends, never blocking
	}
	if n.live == nil {
		return false
	}
	n.live.Kill()
	n.live = nil
	return true
}

// Restart kills leaf i and brings it back from its logs: Compact first
// when compact is set, Close, recover a new server and check that it
// holds the books the old one closed with, then serve it on its old
// address, reattached to its parent. It returns the digest of those
// books. Every node of the leaf lost its connection and reconnects at
// its next request.
func (h *Harness) Restart(i int, compact bool) (uint64, error) {
	lf := h.tiers[0][i]
	before, err := booksDigest(lf.srv)
	if err != nil {
		return 0, fmt.Errorf("pre-restart digest: %w", err)
	}
	if compact {
		if err := lf.srv.Compact(); err != nil {
			return 0, fmt.Errorf("compact: %w", err)
		}
	}
	if err := lf.srv.Close(); err != nil {
		return 0, fmt.Errorf("close: %w", err)
	}
	for _, n := range lf.nodes {
		n.Kill()
	}
	if err := h.newLeaf(lf); err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	after, err := booksDigest(lf.srv)
	if err != nil {
		return 0, fmt.Errorf("post-recovery digest: %w", err)
	}
	if after != before {
		return 0, fmt.Errorf("recovered books digest %016x, want %016x", after, before)
	}
	return before, h.startLeaf(i)
}

// booksDigest folds a server's Status into one FNV-1a digest: books,
// leases, agreements and borrow balances. Borrow liveness flags are left
// out: recovery restores the balances, not the parent links.
func booksDigest(srv Server) (uint64, error) {
	st, err := srv.Status()
	if err != nil {
		return 0, err
	}
	d := fnv.New64a()
	var buf [8]byte
	put := func(xs ...float64) {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			d.Write(buf[:])
		}
	}
	fmt.Fprintf(d, "leases=%d agreements=%d\n", st.Leases, st.Agreements)
	for _, ps := range st.Principals {
		fmt.Fprintf(d, "p%d %s ", ps.Principal, ps.Name)
		put(ps.Available, ps.Reported, ps.Capacity)
	}
	for _, b := range st.Federation.Borrows {
		fmt.Fprintf(d, "borrow %d ", b.ParentLease)
		put(b.Amount)
	}
	return d.Sum64(), nil
}

// Upstream makes server i of a level (0: the leaves, k: parent level k)
// report its aggregate availability to its parent.
func (h *Harness) Upstream(level, i int) error {
	return h.tiers[level][i].srv.ReportUpstream()
}

// Clock is the virtual clock every server of the tree runs on: leases
// expire only when the source advances it.
func (h *Harness) Clock() *vclock.Virtual { return h.vc }

// Reap reclaims every expired lease at the leaves and counts them.
func (h *Harness) Reap() int {
	n := 0
	for _, lf := range h.tiers[0] {
		switch s := lf.srv.(type) {
		case *grm.Server:
			n += s.Reap()
		case *grm.Sharded:
			for k := range s.NumShards() {
				n += s.Shard(k).Reap()
			}
		}
	}
	return n
}

// Books is what one Check read. Status holds one row per level, leaves
// first, with each server's Status; a sharded leaf's row entry is nil,
// and its router's merged caps are in Caps instead.
type Books struct {
	Status [][]*grm.Status
	Caps   []*grm.CapsReply
}

// Check reads every server's books once and checks what needs no model:
// availability within [0, reported] and capacity at least availability.
// A sharded leaf is read through its router's merged Caps, which carry
// no reported column, never through a population-sized Status.
func (h *Harness) Check() (*Books, error) {
	b := &Books{Status: make([][]*grm.Status, len(h.tiers))}
	for k, tier := range h.tiers {
		b.Status[k] = make([]*grm.Status, len(tier))
		for j, m := range tier {
			if err := b.read(k, j, m.srv); err != nil {
				return nil, fmt.Errorf("level %d server %d %w", k, j, err)
			}
		}
	}
	return b, nil
}

// read reads server j of level k into the books and checks each
// principal's row.
func (b *Books) read(k, j int, srv Server) error {
	if g, ok := srv.(*grm.Sharded); ok {
		resp := g.Handle(&grm.Request{Caps: &grm.CapsRequest{}})
		if resp.Err != "" {
			return fmt.Errorf("caps: %s", resp.Err)
		}
		b.Caps = append(b.Caps, resp.Caps)
		for p, a := range resp.Caps.Available {
			if err := checkRow(a, math.Inf(1), resp.Caps.Capacities[p]); err != nil {
				return fmt.Errorf("principal %d %w", p, err)
			}
		}
		return nil
	}
	st, err := srv.Status()
	if err != nil {
		return fmt.Errorf("status: %w", err)
	}
	b.Status[k][j] = st
	for _, ps := range st.Principals {
		if err := checkRow(ps.Available, ps.Reported, ps.Capacity); err != nil {
			return fmt.Errorf("principal %d %q %w", ps.Principal, ps.Name, err)
		}
	}
	return nil
}

// checkRow is the model-free rule for one principal's books, to within
// float rounding.
func checkRow(avail, reported, capacity float64) error {
	const tol = 1e-6
	switch {
	case avail < -tol || avail > reported+tol:
		return fmt.Errorf("available %g outside [0, reported %g]", avail, reported)
	case capacity < avail-tol:
		return fmt.Errorf("capacity %g below available %g", capacity, avail)
	}
	return nil
}

// Close stops every LRM and server the harness started, leaves first.
func (h *Harness) Close() {
	for _, tier := range h.tiers {
		for _, m := range tier {
			for _, n := range m.nodes {
				n.Close()
			}
			for _, sib := range m.sibs {
				sib.Close()
			}
			m.srv.Close()
		}
	}
}
