package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/grm"
	"repro/internal/store"
)

// node is the slice of the served GRM both the single-book server and the
// shard router satisfy.
type node interface {
	Serve(l net.Listener) error
	Addr() net.Addr
	Handle(req *grm.Request) *grm.Response
	Status() (*grm.Status, error)
	AttachParent(addr, name string) error
	Parent() *grm.LRM
	Compact() error
	Close() error
}

// cluster is one workload's served system, built the way cmd/grmd builds
// it: file WALs recovered on boot (empty the first time), the binary codec
// on raw loopback, and for the tree a root server the leaf attaches to.
type cluster struct {
	w    *workload
	dir  string // WAL root: leaf/ (or leaf/shard<i>/) and root/
	pop  *population
	leaf node
	root *grm.Server // nil unless the workload is a tree
	logs []*store.FileLog
	// wrapLog, when set, decorates every WAL before it is attached; the
	// traced pass uses it to time appends from outside the store package.
	wrapLog func(store.Log) store.Log
	// wire counts the bytes the LRM connections moved, both ways.
	wire atomic.Int64

	leafAddr, rootAddr string
	// ids maps population index → wire principal id at the leaf.
	ids  []int
	lrms [2]*grm.LRM
}

// countingConn counts the bytes an LRM connection moves.
type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

const leafNameAtRoot = "leaf"

// systemSeed draws every workload's capacities and share fractions. The
// served systems are the same in every run; the run's seed draws only the
// traffic (request amounts, arrival gaps). Letting it draw the system too
// moved ring64's solve time by a fifth from one seed to the next — which
// LP the run got, not how fast the code solves it.
const systemSeed = 1

// openServers builds the servers over the WAL directory, replays whatever
// the logs hold, and starts serving. A fresh directory yields empty books;
// a directory written by an earlier incarnation yields its exact state.
func (c *cluster) openServers() error {
	attach := func(dir string) (store.Log, error) {
		fl, err := store.OpenFileLog(dir)
		if err != nil {
			return nil, err
		}
		c.logs = append(c.logs, fl)
		if c.wrapLog != nil {
			return c.wrapLog(fl), nil
		}
		return fl, nil
	}
	if c.w.tree {
		c.root = grm.NewServer(core.Config{}, nil)
		lg, err := attach(filepath.Join(c.dir, "root"))
		if err != nil {
			return err
		}
		if err := c.root.Recover(lg); err != nil {
			return err
		}
		if c.rootAddr, err = serve(c.root); err != nil {
			return err
		}
	}
	if c.w.shards > 0 {
		sh := grm.NewSharded(c.w.shards, c.w.cfg, nil)
		logs := make([]store.Log, c.w.shards)
		for i := range logs {
			lg, err := attach(filepath.Join(c.dir, "leaf", fmt.Sprintf("shard%d", i)))
			if err != nil {
				return err
			}
			logs[i] = lg
		}
		if err := sh.RecoverShards(logs); err != nil {
			return err
		}
		c.leaf = sh
	} else {
		srv := grm.NewServer(c.w.cfg, nil)
		lg, err := attach(filepath.Join(c.dir, "leaf"))
		if err != nil {
			return err
		}
		if err := srv.Recover(lg); err != nil {
			return err
		}
		c.leaf = srv
	}
	var err error
	c.leafAddr, err = serve(c.leaf)
	return err
}

// serve starts s on a loopback port and returns the address once s is
// accepting. Serve registers the listener and starts the scheduler on its
// own goroutine; a Close that overtook it would miss both and leave the
// goroutine in Accept. After that the goroutine ends when the server is
// closed (its error is net.ErrClosed then), and Close waits for it.
func serve(s interface {
	Serve(net.Listener) error
	Addr() net.Addr
}) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go s.Serve(l) //nolint:errcheck
	for s.Addr() == nil {
		time.Sleep(20 * time.Microsecond)
	}
	return l.Addr().String(), nil
}

func (c *cluster) shardOf(name string) int {
	if sh, ok := c.leaf.(*grm.Sharded); ok {
		return sh.ShardOf(name)
	}
	return 0
}

// populate registers the population and installs its agreements through
// Handle, exactly the requests LRMs would send.
func (c *cluster) populate() error {
	c.ids = make([]int, len(c.pop.names))
	for i, name := range c.pop.names {
		resp := c.leaf.Handle(&grm.Request{Register: &grm.RegisterRequest{Name: name, Capacity: c.pop.caps[i]}})
		if resp.Err != "" {
			return fmt.Errorf("register %s: %s", name, resp.Err)
		}
		c.ids[i] = resp.Register.Principal
	}
	for _, sh := range c.pop.shares {
		resp := c.leaf.Handle(&grm.Request{Share: &grm.ShareRequest{
			From: c.ids[sh.from], To: c.ids[sh.to], Fraction: sh.fraction, Quantity: sh.quantity}})
		if resp.Err != "" {
			return fmt.Errorf("share %d→%d: %s", sh.from, sh.to, resp.Err)
		}
	}
	if c.root != nil {
		// The peer cluster the leaf can borrow from: registered at the root
		// with room for every oversized request in flight.
		resp := c.root.Handle(&grm.Request{Register: &grm.RegisterRequest{Name: "peer", Capacity: 1e6}})
		if resp.Err != "" {
			return fmt.Errorf("register peer: %s", resp.Err)
		}
	}
	return nil
}

// attach links the leaf to the root (tree workloads) and installs the
// peer→leaf agreement that lets borrows draw on the peer.
func (c *cluster) attach() error {
	if c.root == nil {
		return nil
	}
	if err := c.leaf.AttachParent(c.rootAddr, leafNameAtRoot); err != nil {
		return err
	}
	leafAtRoot := c.leaf.Parent().Principal()
	resp := c.root.Handle(&grm.Request{Share: &grm.ShareRequest{From: 0, To: leafAtRoot, Fraction: 0.5}})
	if resp.Err != "" {
		return fmt.Errorf("share peer→leaf: %s", resp.Err)
	}
	return nil
}

// dial connects the two LRMs under the live principals' names, so each
// re-attaches to the principal the population registered.
func (c *cluster) dial() error {
	cfg := grm.DefaultDialConfig()
	cfg.Codec = grm.CodecBinary
	cfg.RetryMax = 0 // a failed operation is counted, never retried behind the generator's back
	cfg.Dialer = func(addr string) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		return countingConn{Conn: conn, bytes: &c.wire}, nil
	}
	for i, p := range c.pop.live {
		l, err := grm.DialWithConfig(c.leafAddr, c.pop.names[p], c.pop.caps[p], cfg)
		if err != nil {
			return fmt.Errorf("dial %s: %w", c.pop.names[p], err)
		}
		if got := l.Principal(); got != c.ids[p] {
			return fmt.Errorf("dial %s: bound to principal %d, population registered %d", c.pop.names[p], got, c.ids[p])
		}
		c.lrms[i] = l
	}
	return nil
}

// firstPlan makes every connection's shard build its planner and solve
// once, so set-up time includes the cost the first real request would pay.
func (c *cluster) firstPlan(rng *rand.Rand) error {
	for _, l := range c.lrms {
		reply, err := l.Allocate(c.w.amount(rng))
		if err != nil {
			return fmt.Errorf("first plan: %w", err)
		}
		if err := l.Release(reply.Lease); err != nil {
			return fmt.Errorf("first release: %w", err)
		}
	}
	return nil
}

// setup is what setup_s times: build servers, open WALs, register
// principals, install agreements, attach the parent, dial, first plan on
// every active shard.
func setup(c *cluster, seed int64, principals int) error {
	if err := os.RemoveAll(c.dir); err != nil {
		return err
	}
	if err := c.openServers(); err != nil {
		c.close()
		return err
	}
	c.pop = c.w.population(rand.New(rand.NewSource(systemSeed)), principals, c.shardOf)
	rng := rand.New(rand.NewSource(seed))
	steps := []func() error{c.populate, c.attach, c.dial, func() error { return c.firstPlan(rng) }}
	for _, step := range steps {
		if err := step(); err != nil {
			c.close()
			return err
		}
	}
	return nil
}

// hangUp closes the LRM connections, leaving the servers up.
func (c *cluster) hangUp() {
	for i, l := range c.lrms {
		if l != nil {
			l.Close()
			c.lrms[i] = nil
		}
	}
}

// close shuts everything down: connections, leaf, root, then the WAL
// files. Errors are reported for the first failure only.
func (c *cluster) close() error {
	c.hangUp()
	var first error
	note := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if c.leaf != nil {
		note(c.leaf.Close())
		c.leaf = nil
	}
	if c.root != nil {
		note(c.root.Close())
		c.root = nil
	}
	for _, fl := range c.logs {
		note(fl.Close())
	}
	c.logs = nil
	return first
}

// restart is the recovery the recover_s metric times: reopen the logs the
// closed incarnation left, replay them into fresh servers, and read the
// status (which rebuilds every planner, as cmd/grmd does on boot).
func (c *cluster) restart() (time.Duration, *grm.Status, error) {
	start := time.Now()
	if err := c.openServers(); err != nil {
		return 0, nil, err
	}
	st, err := c.leaf.Status()
	if err != nil {
		return 0, nil, err
	}
	return time.Since(start), st, nil
}

// compact folds every WAL into one snapshot record, as grmd's
// -snapshot-interval does. Each repetition starts from a folded log, so
// log length (and the page cache's backlog of dirty log pages) is the same
// at the start of every window instead of growing through the run.
func (c *cluster) compact() error {
	if c.root != nil {
		if err := c.root.Compact(); err != nil {
			return err
		}
	}
	return c.leaf.Compact()
}
