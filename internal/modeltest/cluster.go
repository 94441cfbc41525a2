package modeltest

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/grm"
	"repro/internal/grm/faultnet"
	"repro/internal/grm/transport"
	"repro/internal/store"
	"repro/internal/vclock"
)

// ClusterOptions configures one deterministic protocol-level run: a real
// grm.Server on a loopback listener, LRM clients dialing through
// fault-injectable connections, and a seeded schedule of operations
// (reports, allocations, releases, renewals, new agreements, connection
// kills, virtual-clock advances, and full GRM restarts recovering from
// the write-ahead log).
type ClusterOptions struct {
	// Seed drives everything random: cluster size, capacities, the
	// agreement graph, and the operation schedule.
	Seed int64
	// Steps is how many schedule operations to execute.
	Steps int
	// TTL is the lease time-to-live on the virtual clock. 0 means the
	// default of 10 (virtual) seconds.
	TTL time.Duration
	// Tap, when non-nil, is installed on every GRM the run creates —
	// the initial server and each restart-recovered one — so a scenario
	// recorder (internal/scenario) can capture the whole schedule as a
	// replayable bundle.
	Tap grm.Tap
}

// ClusterFailure pinpoints an invariant violation in a cluster run.
type ClusterFailure struct {
	Seed int64  `json:"seed"`
	Step int    `json:"step"`
	Op   string `json:"op"`
	Msg  string `json:"msg"`
}

// Error formats the failure with its replay seed.
func (f *ClusterFailure) Error() string {
	return fmt.Sprintf("modeltest: cluster step %d (%s) violated an invariant (replay: -cluster-seed %d): %s",
		f.Step, f.Op, f.Seed, f.Msg)
}

// ClusterReport is the outcome of RunCluster.
type ClusterReport struct {
	// Steps is how many operations ran (the failing one included).
	Steps int
	// Trace records one line per operation: the op, its outcome, and the
	// availability vector afterwards. Two runs with the same options must
	// produce byte-identical traces — the determinism test compares them.
	Trace []string
	// Failure is the first invariant violation, nil when the run is clean.
	Failure *ClusterFailure
}

// ledger is the runner's independent model of the GRM's books, built from
// the protocol specification rather than the server code paths: what each
// principal has available, the high-water reported capacities that cap
// release credits, and every outstanding lease with its virtual expiry.
type ledger struct {
	avail    []float64
	reported []float64
	leases   map[int]*ledgerLease
}

type ledgerLease struct {
	takes   []float64
	expires time.Time
}

// credit returns takes to the pool, capped by reported — the release and
// expiry rule.
func (ld *ledger) credit(takes []float64) {
	for i, t := range takes {
		ld.avail[i] += t
		if ld.avail[i] > ld.reported[i] {
			ld.avail[i] = ld.reported[i]
		}
	}
}

// debit applies an allocation's takes, clamped at zero — the commit rule.
func (ld *ledger) debit(takes []float64) {
	for i, t := range takes {
		ld.avail[i] -= t
		if ld.avail[i] < 0 {
			ld.avail[i] = 0
		}
	}
}

// expire removes and credits every lease at or past its expiry, returning
// how many it reclaimed.
func (ld *ledger) expire(now time.Time) int {
	n := 0
	for token, le := range ld.leases {
		if now.Before(le.expires) {
			continue
		}
		delete(ld.leases, token)
		ld.credit(le.takes)
		n++
	}
	return n
}

// clusterNode is one principal's client-side state.
type clusterNode struct {
	lrm      *grm.LRM
	capacity float64
	// lastReport mirrors the LRM's replay-on-reconnect state.
	hasReport  bool
	lastReport float64
	// conns receives every connection this node dials; lastConn is the
	// most recent one (the live one), the kill target.
	conns    chan *faultnet.Conn
	lastConn *faultnet.Conn
	// killed marks that the live connection was severed, so the node's
	// next operation will transparently reconnect: re-register, then
	// replay lastReport. The ledger applies those effects at that moment.
	killed bool
}

// RunCluster executes one seeded cluster schedule and checks the server's
// books against the independent ledger after every operation. The server
// runs on a vclock.Virtual: leases expire exactly when the schedule's
// "advance" steps move the clock, never because the test machine was slow.
func RunCluster(opts ClusterOptions) (*ClusterReport, error) {
	if opts.Steps <= 0 {
		opts.Steps = 100
	}
	if opts.TTL <= 0 {
		opts.TTL = 10 * time.Second
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	rep := &ClusterReport{}

	vc := vclock.NewVirtual(time.Unix(1_000_000_000, 0))
	// The in-memory log is the run's durable medium: it survives the
	// schedule's GRM restarts the way a WAL directory survives a crash.
	wal := store.NewMemLog()
	srv := grm.NewServer(core.Config{}, nil)
	srv.SetClock(vc)
	srv.SetTap(opts.Tap)
	if err := srv.Recover(wal); err != nil {
		return nil, fmt.Errorf("modeltest: cluster attach wal: %w", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("modeltest: cluster listen: %w", err)
	}
	go srv.Serve(l)
	defer func() { srv.Close() }()
	addr := l.Addr().String()

	// Register the principals. Dialing (and the server accepting) before
	// SetLeaseTTL keeps the background reaper off: Serve only starts it
	// when a TTL is already configured, so the schedule's explicit Reap
	// calls are the one and only reaper — expiry counts are exact.
	n := 3 + rng.Intn(3)
	nodes := make([]*clusterNode, n)
	for p := 0; p < n; p++ {
		node := &clusterNode{
			capacity: 1 + grid(rng.Float64()*9),
			conns:    make(chan *faultnet.Conn, 8),
		}
		cfg := grm.DialConfig{
			Timeout:    10 * time.Second,
			RetryMax:   5,
			Backoff:    time.Millisecond,
			MaxBackoff: 4 * time.Millisecond,
			Dialer:     faultnet.Dialer(nil, node.conns),
		}
		lrm, err := grm.DialWithConfig(addr, fmt.Sprintf("p%d", p), node.capacity, cfg)
		if err != nil {
			return nil, fmt.Errorf("modeltest: cluster dial p%d: %w", p, err)
		}
		node.lrm = lrm
		defer lrm.Close()
		nodes[p] = node
	}
	srv.SetLeaseTTL(opts.TTL)

	ld := &ledger{
		avail:    make([]float64, n),
		reported: make([]float64, n),
		leases:   map[int]*ledgerLease{},
	}
	for p, node := range nodes {
		ld.avail[p] = node.capacity
		ld.reported[p] = node.capacity
	}

	// A random agreement graph: up to two outgoing relative agreements per
	// principal, fractions kept under a row sum of 1.
	for p := 0; p < n; p++ {
		budget := 0.8
		for e := 0; e < rng.Intn(3); e++ {
			to := rng.Intn(n)
			frac := grid(0.05 + rng.Float64()*0.3)
			if to == p || frac <= 0 || frac > budget {
				continue
			}
			budget -= frac
			if _, err := nodes[p].lrm.ShareRelative(to, frac); err != nil {
				return nil, fmt.Errorf("modeltest: cluster setup share p%d->p%d: %w", p, to, err)
			}
		}
	}

	// reconnectEffects applies the ledger-side consequences of the node's
	// transparent reconnect, which the LRM performs before its next
	// operation on a killed connection: re-register (availability resets to
	// the registration capacity) then replay the last report.
	reconnectEffects := func(p int) {
		node := nodes[p]
		if !node.killed {
			return
		}
		node.killed = false
		ld.avail[p] = node.capacity
		ld.reported[p] = math.Max(ld.reported[p], node.capacity)
		if node.hasReport {
			ld.avail[p] = node.lastReport
			ld.reported[p] = math.Max(ld.reported[p], node.lastReport)
		}
	}
	drainConns := func(p int) {
		for {
			select {
			case c := <-nodes[p].conns:
				nodes[p].lastConn = c
			default:
				return
			}
		}
	}
	// pingOnce proves the restarted server's accept loop is live: a
	// completed hello exchange means Serve already read the
	// (still zero) lease TTL, so enabling the TTL afterwards keeps the
	// background reaper off and expiry stays under the schedule's explicit
	// Reap calls — same invariant as the initial dial-before-SetLeaseTTL.
	pingOnce := func() error {
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
	fail := func(step int, op, format string, args ...any) *ClusterReport {
		rep.Steps = step + 1
		rep.Failure = &ClusterFailure{Seed: opts.Seed, Step: step, Op: op, Msg: fmt.Sprintf(format, args...)}
		return rep
	}
	const tol = 1e-6

	// checkBooks compares the server's status view with the ledger.
	checkBooks := func() error {
		st, err := srv.Status()
		if err != nil {
			return fmt.Errorf("status: %w", err)
		}
		if len(st.Principals) != n {
			return fmt.Errorf("status lists %d principals, want %d", len(st.Principals), n)
		}
		for i, ps := range st.Principals {
			if math.Abs(ps.Available-ld.avail[i]) > tol {
				return fmt.Errorf("principal %d available = %g, ledger says %g", i, ps.Available, ld.avail[i])
			}
			if math.Abs(ps.Reported-ld.reported[i]) > tol {
				return fmt.Errorf("principal %d reported = %g, ledger says %g", i, ps.Reported, ld.reported[i])
			}
			if ps.Available < -tol || ps.Available > ps.Reported+tol {
				return fmt.Errorf("principal %d available %g outside [0, reported %g]", i, ps.Available, ps.Reported)
			}
		}
		if st.Leases != len(ld.leases) {
			return fmt.Errorf("server holds %d leases, ledger says %d", st.Leases, len(ld.leases))
		}
		return nil
	}

	tokens := func() []int {
		out := make([]int, 0, len(ld.leases))
		for t := range ld.leases {
			out = append(out, t)
		}
		// Map order is random; sort so token picks depend only on the rng.
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j] < out[j-1]; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
		return out
	}

	for step := 0; step < opts.Steps; step++ {
		p := rng.Intn(n)
		node := nodes[p]
		var line string
		switch op := rng.Intn(11); op {
		case 0, 1, 2: // report
			x := grid(rng.Float64() * node.capacity * 1.2)
			reconnectEffects(p)
			if err := node.lrm.Report(x); err != nil {
				return fail(step, "report", "Report(%g): %v", x, err), nil
			}
			node.hasReport, node.lastReport = true, x
			ld.avail[p] = x
			ld.reported[p] = math.Max(ld.reported[p], x)
			line = fmt.Sprintf("report p%d %g", p, x)

		case 3, 4, 5: // alloc
			reconnectEffects(p)
			availSrv, caps, err := node.lrm.Capacities()
			if err != nil {
				return fail(step, "alloc", "Capacities: %v", err), nil
			}
			for i := range availSrv {
				if math.Abs(availSrv[i]-ld.avail[i]) > tol {
					return fail(step, "alloc", "pre-alloc available[%d] = %g, ledger says %g", i, availSrv[i], ld.avail[i]), nil
				}
			}
			amount := grid(caps[p] * (0.2 + rng.Float64()*0.7))
			if amount <= 0 {
				line = fmt.Sprintf("alloc p%d skipped (no capacity)", p)
				break
			}
			before := append([]float64(nil), ld.avail...)
			reply, err := node.lrm.Allocate(amount)
			if err != nil {
				if strings.Contains(err.Error(), "insufficient") {
					// Legitimate refusal (capacity moved between the caps
					// probe and the request); the books must be untouched.
					line = fmt.Sprintf("alloc p%d %g refused", p, amount)
					break
				}
				return fail(step, "alloc", "Allocate(%g): %v", amount, err), nil
			}
			// The reply is pairs: one positive take per source, sources
			// ascending and registered.
			if len(reply.Sources) != len(reply.Takes) {
				return fail(step, "alloc", "reply has %d sources for %d takes", len(reply.Sources), len(reply.Takes)), nil
			}
			var sum float64
			for k, i := range reply.Sources {
				t := reply.Takes[k]
				if i < 0 || i >= n || (k > 0 && i <= reply.Sources[k-1]) {
					return fail(step, "alloc", "source %d (entry %d) out of order or not one of %d principals", i, k, n), nil
				}
				if t <= 0 {
					return fail(step, "alloc", "take[%d] = %g is not positive", i, t), nil
				}
				if t > before[i]+tol {
					return fail(step, "alloc", "take[%d] = %g exceeds available %g", i, t, before[i]), nil
				}
				sum += t
			}
			if math.Abs(sum-amount) > tol {
				return fail(step, "alloc", "Σ takes = %g, requested %g", sum, amount), nil
			}
			if reply.Theta < -tol {
				return fail(step, "alloc", "θ = %g negative", reply.Theta), nil
			}
			if _, dup := ld.leases[reply.Lease]; dup {
				return fail(step, "alloc", "lease token %d reused", reply.Lease), nil
			}
			takes := reply.Dense(n)
			ld.debit(takes)
			ld.leases[reply.Lease] = &ledgerLease{
				takes:   takes,
				expires: vc.Now().Add(opts.TTL),
			}
			line = fmt.Sprintf("alloc p%d %g lease=%d theta=%.9g", p, amount, reply.Lease, reply.Theta)

		case 6: // release
			reconnectEffects(p)
			ts := tokens()
			if len(ts) == 0 {
				// Nothing outstanding: a bogus token must be refused
				// without touching the books.
				if err := node.lrm.Release(1 << 30); err == nil {
					return fail(step, "release", "bogus lease accepted"), nil
				}
				line = fmt.Sprintf("release p%d bogus refused", p)
				break
			}
			token := ts[rng.Intn(len(ts))]
			if err := node.lrm.Release(token); err != nil {
				return fail(step, "release", "Release(%d): %v", token, err), nil
			}
			ld.credit(ld.leases[token].takes)
			delete(ld.leases, token)
			line = fmt.Sprintf("release p%d lease=%d", p, token)

		case 7: // renew
			ts := tokens()
			if len(ts) == 0 {
				// No RPC is made on this path, so no reconnect happens
				// either — the ledger must not apply its effects.
				line = fmt.Sprintf("renew p%d skipped (no leases)", p)
				break
			}
			reconnectEffects(p)
			token := ts[rng.Intn(len(ts))]
			ttl, err := node.lrm.Renew(token)
			if err != nil {
				return fail(step, "renew", "Renew(%d): %v", token, err), nil
			}
			if ttl != opts.TTL {
				return fail(step, "renew", "renewed TTL = %v, want %v", ttl, opts.TTL), nil
			}
			ld.leases[token].expires = vc.Now().Add(opts.TTL)
			line = fmt.Sprintf("renew p%d lease=%d", p, token)

		case 8: // kill the live connection; next op reconnects
			drainConns(p)
			if node.lastConn == nil {
				line = fmt.Sprintf("kill p%d skipped (no conn)", p)
				break
			}
			node.lastConn.Kill()
			node.lastConn = nil
			node.killed = true
			line = fmt.Sprintf("kill p%d", p)

		case 9: // advance the virtual clock and reap
			// Keep advances on a whole-millisecond grid: the scenario
			// recorder captures timestamps at millisecond resolution, and a
			// sub-millisecond advance would shift lease-expiry boundaries
			// between a recording and its replay.
			d := (opts.TTL / 3 * time.Duration(1+rng.Intn(5))).Truncate(time.Millisecond)
			vc.Advance(d)
			now := vc.Now()
			reaped := srv.Reap()
			expired := ld.expire(now)
			if reaped != expired {
				return fail(step, "advance", "server reaped %d leases at +%v, ledger expired %d", reaped, d, expired), nil
			}
			line = fmt.Sprintf("advance %v reaped=%d", d, reaped)

		case 10: // kill the whole GRM and recover it from the WAL
			compacted := rng.Intn(2) == 0
			if compacted {
				if err := srv.Compact(); err != nil {
					return fail(step, "restart", "Compact: %v", err), nil
				}
			}
			if err := srv.Close(); err != nil {
				return fail(step, "restart", "Close: %v", err), nil
			}
			// Every live connection died with the server; each node's next
			// RPC transparently reconnects (re-register + replay report).
			for q := range nodes {
				drainConns(q)
				nodes[q].lastConn = nil
				nodes[q].killed = true
			}
			srv = grm.NewServer(core.Config{}, nil)
			srv.SetClock(vc)
			srv.SetTap(opts.Tap)
			if err := srv.Recover(wal); err != nil {
				return fail(step, "restart", "Recover: %v", err), nil
			}
			l, err := net.Listen("tcp", addr)
			if err != nil {
				return fail(step, "restart", "relisten %s: %v", addr, err), nil
			}
			go srv.Serve(l)
			if err := pingOnce(); err != nil {
				return fail(step, "restart", "post-restart ping: %v", err), nil
			}
			srv.SetLeaseTTL(opts.TTL)
			line = fmt.Sprintf("restart compact=%v leases=%d", compacted, len(ld.leases))
		}

		if err := checkBooks(); err != nil {
			return fail(step, "invariant", "after %q: %v", line, err), nil
		}
		rep.Trace = append(rep.Trace, fmt.Sprintf("%4d %s | avail=%s", step, line, fmtVec(ld.avail)))
		rep.Steps = step + 1
	}
	return rep, nil
}

// fmtVec renders a float vector compactly and stably for the trace.
func fmtVec(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.9g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
