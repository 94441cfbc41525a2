package modeltest

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro/internal/grm"
	"repro/internal/scenario"
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

func (o *ClusterOptions) defaults() {
	if o.Steps <= 0 {
		o.Steps = 100
	}
	if o.TTL <= 0 {
		o.TTL = 10 * time.Second
	}
}

// RunFailure pinpoints an invariant violation in a cluster or tree run.
type RunFailure struct {
	Seed int64  `json:"seed"`
	Step int    `json:"step"`
	Op   string `json:"op"`
	Msg  string `json:"msg"`
	// run names the runner, "cluster" or "tree", and so its seed flag.
	run string
}

// Error formats the failure with its replay seed.
func (f *RunFailure) Error() string {
	return fmt.Sprintf("modeltest: %s step %d (%s) violated an invariant (replay: -%s-seed %d): %s",
		f.run, f.Step, f.Op, f.run, f.Seed, f.Msg)
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
	Failure *RunFailure
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
// how many it reclaimed. It credits in the server's reap order, (expires,
// token): credit is a capped float sum, so the order is part of the books.
func (ld *ledger) expire(now time.Time) int {
	var due []int
	for token, le := range ld.leases {
		if !now.Before(le.expires) {
			due = append(due, token)
		}
	}
	slices.SortFunc(due, func(a, b int) int {
		return cmp.Or(ld.leases[a].expires.Compare(ld.leases[b].expires), cmp.Compare(a, b))
	})
	for _, token := range due {
		ld.credit(ld.leases[token].takes)
		delete(ld.leases, token)
	}
	return len(due)
}

// clusterNode is one principal's client-side state.
type clusterNode struct {
	*scenario.Node
	capacity float64
	// lastReport mirrors the LRM's replay-on-reconnect state.
	hasReport  bool
	lastReport float64
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
	opts.defaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	rep := &ClusterReport{}

	// The in-memory log is the run's durable medium: it survives the
	// schedule's GRM restarts the way a WAL directory survives a crash.
	h, err := scenario.Start(scenario.Topology{TTL: opts.TTL, Tap: opts.Tap})
	if err != nil {
		return nil, fmt.Errorf("modeltest: cluster: %w", err)
	}
	defer h.Close()

	n := 3 + rng.Intn(3)
	nodes := make([]*clusterNode, n)
	for p := 0; p < n; p++ {
		capacity := 1 + grid(rng.Float64()*9)
		node, err := h.Dial(0, fmt.Sprintf("p%d", p), capacity)
		if err != nil {
			return nil, fmt.Errorf("modeltest: cluster dial p%d: %w", p, err)
		}
		nodes[p] = &clusterNode{Node: node, capacity: capacity}
	}

	ld := &ledger{leases: map[int]*ledgerLease{}}
	for _, node := range nodes {
		ld.avail = append(ld.avail, node.capacity)
		ld.reported = append(ld.reported, node.capacity)
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
			if _, err := nodes[p].ShareRelative(to, frac); err != nil {
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
	fail := func(step int, op, format string, args ...any) *ClusterReport {
		rep.Steps = step + 1
		rep.Failure = &RunFailure{Seed: opts.Seed, Step: step, Op: op, Msg: fmt.Sprintf(format, args...), run: "cluster"}
		return rep
	}
	const tol = 1e-6

	// checkBooks runs the harness's books check and compares the
	// server's status view it read with the ledger.
	checkBooks := func() error {
		books, err := h.Check()
		if err != nil {
			return err
		}
		st := books.Status[0][0]
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
		slices.Sort(out)
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
			if err := node.Report(x); err != nil {
				return fail(step, "report", "Report(%g): %v", x, err), nil
			}
			node.hasReport, node.lastReport = true, x
			ld.avail[p] = x
			ld.reported[p] = math.Max(ld.reported[p], x)
			line = fmt.Sprintf("report p%d %g", p, x)

		case 3, 4, 5: // alloc
			reconnectEffects(p)
			availSrv, caps, err := node.Capacities()
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
			reply, err := node.Allocate(amount)
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
				if t > ld.avail[i]+tol {
					return fail(step, "alloc", "take[%d] = %g exceeds available %g", i, t, ld.avail[i]), nil
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
				expires: h.Clock().Now().Add(opts.TTL),
			}
			line = fmt.Sprintf("alloc p%d %g lease=%d theta=%.9g", p, amount, reply.Lease, reply.Theta)

		case 6: // release
			reconnectEffects(p)
			ts := tokens()
			if len(ts) == 0 {
				// Nothing outstanding: a bogus token must be refused
				// without touching the books.
				if err := node.Release(1 << 30); err == nil {
					return fail(step, "release", "bogus lease accepted"), nil
				}
				line = fmt.Sprintf("release p%d bogus refused", p)
				break
			}
			token := ts[rng.Intn(len(ts))]
			if err := node.Release(token); err != nil {
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
			ttl, err := node.Renew(token)
			if err != nil {
				return fail(step, "renew", "Renew(%d): %v", token, err), nil
			}
			if ttl != opts.TTL {
				return fail(step, "renew", "renewed TTL = %v, want %v", ttl, opts.TTL), nil
			}
			ld.leases[token].expires = h.Clock().Now().Add(opts.TTL)
			line = fmt.Sprintf("renew p%d lease=%d", p, token)

		case 8: // kill the live connection; next op reconnects
			if !node.Kill() {
				line = fmt.Sprintf("kill p%d skipped (no conn)", p)
				break
			}
			node.killed = true
			line = fmt.Sprintf("kill p%d", p)

		case 9: // advance the virtual clock and reap
			// Keep advances on a whole-millisecond grid: the scenario
			// recorder captures timestamps at millisecond resolution, and a
			// sub-millisecond advance would shift lease-expiry boundaries
			// between a recording and its replay.
			d := (opts.TTL / 3 * time.Duration(1+rng.Intn(5))).Truncate(time.Millisecond)
			h.Clock().Advance(d)
			now := h.Clock().Now()
			reaped := h.Reap()
			expired := ld.expire(now)
			if reaped != expired {
				return fail(step, "advance", "server reaped %d leases at +%v, ledger expired %d", reaped, d, expired), nil
			}
			line = fmt.Sprintf("advance %v reaped=%d", d, reaped)

		case 10: // kill the whole GRM and recover it from the WAL
			compacted := rng.Intn(2) == 0
			if _, err := h.Restart(0, compacted); err != nil {
				return fail(step, "restart", "%v", err), nil
			}
			// Every live connection died with the server; each node's next
			// RPC transparently reconnects (re-register + replay report).
			for _, node := range nodes {
				node.killed = true
			}
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

// RecordCluster runs one seeded cluster schedule with a scenario recorder
// tapping the server, returning the captured bundle alongside the cluster
// report. The schedule is single-threaded, so the recording
// replays exactly. `created` stamps the bundle's Created field.
func RecordCluster(opts ClusterOptions, created time.Time) (*scenario.Bundle, *ClusterReport, error) {
	opts.defaults()
	rec := scenario.NewRecorder(scenario.Meta{
		Name:    fmt.Sprintf("cluster-seed%d", opts.Seed),
		Title:   fmt.Sprintf("recorded modeltest cluster schedule (seed %d, %d steps)", opts.Seed, opts.Steps),
		Source:  "scenario record (internal/modeltest.RunCluster)",
		Created: created.UTC().Format(time.RFC3339),
		TTLMS:   opts.TTL.Milliseconds(),
	})
	opts.Tap = rec.Tap
	rep, err := RunCluster(opts)
	if err != nil {
		return nil, rep, err
	}
	return rec.Bundle(), rep, nil
}

// fmtVec renders a float vector compactly and stably for the trace.
func fmtVec(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.9g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
