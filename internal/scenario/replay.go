package scenario

import (
	"fmt"
	"math"
	"net"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/grm"
	"repro/internal/grm/faultnet"
	"repro/internal/vclock"
)

// ReplayOptions configures one replay run.
type ReplayOptions struct {
	// Bless records the actual outcome of every event into
	// Result.Actual instead of comparing against expectations — the
	// engine behind "scenario rebless" and corpus seeding.
	Bless bool
}

// Divergence pinpoints the first place a replay departed from the
// bundle's expectations.
type Divergence struct {
	// Index is the diverging event's index in events.jsonl.
	Index int
	// Op describes the event that diverged.
	Op string
	// Field names the first mismatching outcome field.
	Field string
	// Expected and Actual render the two values.
	Expected string
	Actual   string
	// Status renders the server's books at the point of divergence.
	Status string
}

// Error formats the divergence as the report verify prints.
func (d *Divergence) Error() string {
	return fmt.Sprintf("event %d (%s): %s: expected %s, got %s\nserver status at divergence:\n%s",
		d.Index, d.Op, d.Field, d.Expected, d.Actual, indent(d.Status))
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "  " + strings.Join(lines, "\n  ")
}

// Result is the outcome of a replay.
type Result struct {
	// Name is the bundle's name.
	Name string
	// Events is how many events executed (all of them unless the replay
	// stopped at a divergence).
	Events int
	// Divergence is the first expectation mismatch, nil when the replay
	// matched everywhere.
	Divergence *Divergence
	// Actual holds the captured outcome of every executed event. In
	// bless mode it is the new expected.jsonl content.
	Actual map[int]*Outcome
	// Trace renders the executed events with their actual outcomes,
	// "unchecked" for events the bundle holds no expectation for. On a
	// clean replay of a densely blessed bundle it is byte-identical to
	// Bundle.Trace().
	Trace string
}

// replayNode is one principal's client-side handle during replay.
type replayNode struct {
	lrm      *grm.LRM
	conns    chan *faultnet.Conn
	lastConn *faultnet.Conn
}

// replayState carries everything a running replay needs.
type replayState struct {
	bundle *Bundle
	opts   ReplayOptions

	vc   *vclock.Virtual
	srv  *grm.Server
	addr string
	// ttlArmed is set once SetLeaseTTL ran (after the first register, so
	// the background reaper never starts and reaping stays explicit).
	ttlArmed bool
	// offset is the virtual time already elapsed, in milliseconds.
	offset int64

	nodes map[int]*replayNode

	// parent federation fixtures (built by an attach event). parentSrv
	// is the immediate parent — the level checkpoints observe;
	// ancestorSrvs holds every GRM the attach raised (immediate parent
	// first when the spec nests, then each level above), all closed on
	// replay exit.
	parentSrv    *grm.Server
	ancestorSrvs []*grm.Server
	parentLRMs   []*grm.LRM
}

// Replay runs the bundle against a fresh grm.Server on a virtual clock
// and compares each event's live outcome against the bundle's
// expectations, stopping at the first divergence. The returned error is
// only for infrastructure failures (listen, dial); expectation
// mismatches land in Result.Divergence.
func Replay(b *Bundle, opts ReplayOptions) (*Result, error) {
	st := &replayState{
		bundle: b,
		opts:   opts,
		vc:     vclock.NewVirtual(time.Unix(1_000_000_000, 0)),
		nodes:  make(map[int]*replayNode),
	}
	st.srv = grm.NewServer(core.Config{Level: b.Meta.Level, Approx: b.Meta.Approx}, nil)
	st.srv.SetClock(st.vc)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("scenario: replay listen: %w", err)
	}
	go st.srv.Serve(l)
	defer func() {
		for _, n := range st.nodes {
			n.lrm.Close()
		}
		st.srv.Close()
		for _, lrm := range st.parentLRMs {
			lrm.Close()
		}
		for _, srv := range st.ancestorSrvs {
			srv.Close()
		}
	}()
	st.addr = l.Addr().String()

	res := &Result{Name: b.Meta.Name, Actual: make(map[int]*Outcome)}
	var trace strings.Builder
	for i := range b.Events {
		ev := &b.Events[i]
		st.advanceTo(ev)
		actual := st.execute(ev)
		st.checkpoint(actual)
		res.Events = i + 1
		if opts.Bless || b.Expected[i] != nil {
			res.Actual[i] = actual
			trace.WriteString(renderLine(i, ev.T, ev, actual))
		} else {
			trace.WriteString(renderLine(i, ev.T, ev, nil))
		}
		trace.WriteByte('\n')
		if !opts.Bless {
			if want := b.Expected[i]; want != nil {
				if field, wantS, gotS := diffOutcome(want, actual, b.tolerance()); field != "" {
					res.Divergence = &Divergence{
						Index:    i,
						Op:       ev.describe(),
						Field:    field,
						Expected: wantS,
						Actual:   gotS,
						Status:   st.statusText(),
					}
					break
				}
			}
		}
	}
	res.Trace = trace.String()
	return res, nil
}

// tolerance returns the bundle's float comparison tolerance.
func (b *Bundle) tolerance() float64 {
	if b.Meta.Tolerance > 0 {
		return b.Meta.Tolerance
	}
	return DefaultTolerance
}

// advanceTo moves the virtual clock to the event's timestamp and reaps
// leases that expired in the gap, so virtual time passes exactly as the
// log recorded it. The explicit advance op skips the implicit reap: its
// own counted Reap is the observation.
func (st *replayState) advanceTo(ev *Event) {
	if ev.T > st.offset {
		st.vc.Advance(time.Duration(ev.T-st.offset) * time.Millisecond)
		st.offset = ev.T
		if st.ttlArmed && ev.Op != OpAdvance {
			st.srv.Reap()
		}
	}
}

// dialCfg is the DialConfig replayed LRMs use: fast retries on the
// loopback listener, connections surfaced for kill events.
func (st *replayState) dialCfg(conns chan *faultnet.Conn) grm.DialConfig {
	return grm.DialConfig{
		Timeout:    10 * time.Second,
		RetryMax:   5,
		Backoff:    time.Millisecond,
		MaxBackoff: 4 * time.Millisecond,
		Dialer:     faultnet.Dialer(nil, conns),
	}
}

// node returns the LRM acting for principal p, falling back to the
// lowest-id node for ops whose wire request names no principal.
func (st *replayState) node(p int) *replayNode {
	if n := st.nodes[p]; n != nil {
		return n
	}
	best := -1
	for id := range st.nodes {
		if best < 0 || id < best {
			best = id
		}
	}
	return st.nodes[best] // nil when no principal registered yet
}

// execute runs one event against the live server and captures its
// observable outcome (checkpoints are added by the caller).
func (st *replayState) execute(ev *Event) *Outcome {
	out := &Outcome{}
	fail := func(err error) *Outcome {
		out.Err = err.Error()
		return out
	}
	switch ev.Op {
	case OpRegister:
		conns := make(chan *faultnet.Conn, 8)
		lrm, err := grm.DialWithConfig(st.addr, ev.Name, ev.Capacity, st.dialCfg(conns))
		if err != nil {
			return fail(err)
		}
		pid := lrm.Principal()
		if old := st.nodes[pid]; old != nil {
			old.lrm.Close()
		}
		st.nodes[pid] = &replayNode{lrm: lrm, conns: conns}
		out.Principal = &pid
		// Arm the lease TTL only now: the register proved Serve already
		// read the zero TTL, so the background reaper stays off and
		// expiry happens only through the replay's explicit Reap calls.
		if !st.ttlArmed && st.bundle.Meta.TTLMS > 0 {
			st.srv.SetLeaseTTL(time.Duration(st.bundle.Meta.TTLMS) * time.Millisecond)
			st.ttlArmed = true
		}
	case OpReport:
		n := st.node(ev.P)
		if n == nil {
			return fail(fmt.Errorf("scenario: report: no principal %d", ev.P))
		}
		if err := n.lrm.Report(ev.V); err != nil {
			return fail(err)
		}
	case OpShare:
		n := st.node(ev.P)
		if n == nil {
			return fail(fmt.Errorf("scenario: share: no principal %d", ev.P))
		}
		var ticket int
		var err error
		if ev.Fraction != 0 {
			ticket, err = n.lrm.ShareRelative(ev.To, ev.Fraction)
		} else {
			ticket, err = n.lrm.ShareAbsolute(ev.To, ev.Quantity)
		}
		if err != nil {
			return fail(err)
		}
		out.Ticket = &ticket
	case OpRevoke:
		n := st.node(ev.P)
		if n == nil {
			return fail(fmt.Errorf("scenario: revoke: no principal registered"))
		}
		if err := n.lrm.Revoke(ev.Ticket); err != nil {
			return fail(err)
		}
	case OpAlloc:
		n := st.node(ev.P)
		if n == nil {
			return fail(fmt.Errorf("scenario: alloc: no principal %d", ev.P))
		}
		reply, err := n.lrm.Allocate(ev.Amount)
		if err != nil {
			return fail(err)
		}
		out.Takes = reply.Dense(st.principals())
		theta := reply.Theta
		out.Theta = &theta
		lease := reply.Lease
		out.Lease = &lease
	case OpRelease:
		n := st.node(ev.P)
		if n == nil {
			return fail(fmt.Errorf("scenario: release: no principal registered"))
		}
		if err := n.lrm.Release(ev.Lease); err != nil {
			return fail(err)
		}
	case OpRenew:
		n := st.node(ev.P)
		if n == nil {
			return fail(fmt.Errorf("scenario: renew: no principal registered"))
		}
		ttl, err := n.lrm.Renew(ev.Lease)
		if err != nil {
			return fail(err)
		}
		ms := ttl.Milliseconds()
		out.TTLMS = &ms
	case OpKill:
		n := st.nodes[ev.P]
		if n == nil {
			return fail(fmt.Errorf("scenario: kill: no principal %d", ev.P))
		}
		for {
			select {
			case c := <-n.conns:
				n.lastConn = c
			default:
				goto drained
			}
		}
	drained:
		if n.lastConn != nil {
			n.lastConn.Kill()
		}
		// Ping forces the transparent reconnect (re-register + report
		// replay) right now, so its book effects land at this event
		// instead of smearing into the next one.
		if err := n.lrm.Ping(); err != nil {
			return fail(err)
		}
	case OpAdvance:
		// advanceTo already moved the clock to this event's T; the
		// counted Reap is the whole operation.
		reaped := st.srv.Reap()
		out.Reaped = &reaped
	case OpAttach:
		if err := st.attach(ev, out); err != nil {
			return fail(err)
		}
	}
	return out
}

// attach builds the in-process GRM tree an attach event describes:
// sibling principals registered at the (possibly multi-level) parent
// chain, the replayed cluster attached as one more LRM at the lowest
// level, and each sibling's relative share granted to the cluster below
// it — the borrow path of federation.go, wholly inside the replay.
func (st *replayState) attach(ev *Event, out *Outcome) error {
	if st.parentSrv != nil {
		return fmt.Errorf("scenario: attach: parent already attached")
	}
	parent, paddr, sibs, err := st.buildLevel(ev.Parent)
	if err != nil {
		return err
	}
	st.parentSrv = parent
	if err := st.srv.AttachParentConfig(paddr, ev.Name, st.dialCfg(nil)); err != nil {
		return fmt.Errorf("scenario: attach: %w", err)
	}
	clusterPid := st.srv.Parent().Principal()
	out.Principal = &clusterPid
	return st.grantSiblingShares(ev.Parent, sibs, clusterPid)
}

// buildLevel raises the GRM one ParentSpec level describes — its
// sibling principals and, recursively, the grandparent chain above it,
// with each level attached to the one above as a single cluster LRM and
// granted its siblings' shares. Returns the level's server, its listen
// address, and the sibling LRMs so the caller can grant their shares to
// the cluster attaching from below.
func (st *replayState) buildLevel(spec *ParentSpec) (*grm.Server, string, []*grm.LRM, error) {
	srv := grm.NewServer(core.Config{}, nil)
	// Every ancestor shares the replay's virtual clock but keeps TTL
	// zero: ancestor-side leases (the borrows) never expire on their
	// own, so replay determinism needs no reaper above the leaf.
	srv.SetClock(st.vc)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, fmt.Errorf("scenario: attach listen: %w", err)
	}
	go srv.Serve(l)
	st.ancestorSrvs = append(st.ancestorSrvs, srv)
	addr := l.Addr().String()

	sibs := make([]*grm.LRM, 0, len(spec.Siblings))
	for _, sib := range spec.Siblings {
		lrm, err := grm.DialWithConfig(addr, sib.Name, sib.Capacity, st.dialCfg(nil))
		if err != nil {
			return nil, "", nil, fmt.Errorf("scenario: attach sibling %q: %w", sib.Name, err)
		}
		st.parentLRMs = append(st.parentLRMs, lrm)
		sibs = append(sibs, lrm)
	}
	if spec.Parent != nil {
		_, gaddr, gsibs, err := st.buildLevel(spec.Parent)
		if err != nil {
			return nil, "", nil, err
		}
		if err := srv.AttachParentConfig(gaddr, spec.Name, st.dialCfg(nil)); err != nil {
			return nil, "", nil, fmt.Errorf("scenario: attach %q: %w", spec.Name, err)
		}
		pid := srv.Parent().Principal()
		if err := st.grantSiblingShares(spec.Parent, gsibs, pid); err != nil {
			return nil, "", nil, err
		}
	}
	return srv, addr, sibs, nil
}

// grantSiblingShares issues each sibling's relative share to the
// cluster principal that just attached at their level.
func (st *replayState) grantSiblingShares(spec *ParentSpec, sibs []*grm.LRM, clusterPid int) error {
	for i, sib := range spec.Siblings {
		if sib.Fraction == 0 {
			continue
		}
		if _, err := sibs[i].ShareRelative(clusterPid, sib.Fraction); err != nil {
			return fmt.Errorf("scenario: attach share %q: %w", sib.Name, err)
		}
	}
	return nil
}

// principals counts the served GRM's principals. Bundles record an
// allocation's takes as a vector of that length, so that is the length
// the reply's pairs are expanded to before they are compared.
func (st *replayState) principals() int {
	status, err := st.srv.Status()
	if err != nil {
		return 0
	}
	return len(status.Principals)
}

// checkpoint captures the post-operation books into the outcome.
func (st *replayState) checkpoint(out *Outcome) {
	if status, err := st.srv.Status(); err == nil {
		out.Avail = availVector(status)
		leases := status.Leases
		out.Leases = &leases
	}
	if st.parentSrv != nil {
		if status, err := st.parentSrv.Status(); err == nil {
			out.ParentAvail = availVector(status)
			leases := status.Leases
			out.ParentLeases = &leases
		}
	}
}

// availVector extracts the availability vector indexed by principal id.
func availVector(status *grm.Status) []float64 {
	v := make([]float64, len(status.Principals))
	for _, p := range status.Principals {
		v[p.Principal] = p.Available
	}
	return v
}

// statusText renders the server's books for the divergence report.
func (st *replayState) statusText() string {
	status, err := st.srv.Status()
	if err != nil {
		return fmt.Sprintf("status unavailable: %v", err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "leases=%d agreements=%d\n", status.Leases, status.Agreements)
	for _, p := range status.Principals {
		fmt.Fprintf(&sb, "p%d %q avail=%s reported=%s capacity=%s\n",
			p.Principal, p.Name, ftoa(p.Available), ftoa(p.Reported), ftoa(p.Capacity))
	}
	if st.parentSrv != nil {
		if pstat, err := st.parentSrv.Status(); err == nil {
			fmt.Fprintf(&sb, "parent: leases=%d avail=%s\n", pstat.Leases, fmtVec(availVector(pstat)))
		}
	}
	return sb.String()
}

// diffOutcome compares an expected checkpoint against the actual
// outcome, field by field in a fixed order, and returns the first
// mismatch (empty field name when they agree). Only fields the
// expectation sets are compared.
func diffOutcome(want, got *Outcome, tol float64) (field, wantS, gotS string) {
	switch {
	case want.Err == "" && got.Err != "":
		return "err", "success", fmt.Sprintf("%q", got.Err)
	case want.Err == "*" && got.Err == "":
		return "err", "any error", "success"
	case want.Err != "" && want.Err != "*" && want.Err != got.Err:
		return "err", fmt.Sprintf("%q", want.Err), fmt.Sprintf("%q", got.Err)
	}
	if want.Principal != nil && (got.Principal == nil || *want.Principal != *got.Principal) {
		return "principal", fmt.Sprint(*want.Principal), optInt(got.Principal)
	}
	if want.Ticket != nil && (got.Ticket == nil || *want.Ticket != *got.Ticket) {
		return "ticket", fmt.Sprint(*want.Ticket), optInt(got.Ticket)
	}
	if want.Takes != nil {
		if got.Takes == nil || !vecClose(want.Takes, got.Takes, tol) {
			return "takes", fmtVec(want.Takes), optVec(got.Takes)
		}
	}
	if want.Theta != nil {
		if got.Theta == nil || !close_(*want.Theta, *got.Theta, tol) {
			return "theta", ftoa(*want.Theta), optFloat(got.Theta)
		}
	}
	if want.Lease != nil && (got.Lease == nil || *want.Lease != *got.Lease) {
		return "lease", fmt.Sprint(*want.Lease), optInt(got.Lease)
	}
	if want.TTLMS != nil && (got.TTLMS == nil || *want.TTLMS != *got.TTLMS) {
		wantS = fmt.Sprint(*want.TTLMS)
		if got.TTLMS != nil {
			return "ttl_ms", wantS, fmt.Sprint(*got.TTLMS)
		}
		return "ttl_ms", wantS, "absent"
	}
	if want.Reaped != nil && (got.Reaped == nil || *want.Reaped != *got.Reaped) {
		return "reaped", fmt.Sprint(*want.Reaped), optInt(got.Reaped)
	}
	if want.Avail != nil {
		if got.Avail == nil || !vecClose(want.Avail, got.Avail, tol) {
			return "avail", fmtVec(want.Avail), optVec(got.Avail)
		}
	}
	if want.Leases != nil && (got.Leases == nil || *want.Leases != *got.Leases) {
		return "leases", fmt.Sprint(*want.Leases), optInt(got.Leases)
	}
	if want.ParentAvail != nil {
		if got.ParentAvail == nil || !vecClose(want.ParentAvail, got.ParentAvail, tol) {
			return "parent_avail", fmtVec(want.ParentAvail), optVec(got.ParentAvail)
		}
	}
	if want.ParentLeases != nil && (got.ParentLeases == nil || *want.ParentLeases != *got.ParentLeases) {
		return "parent_leases", fmt.Sprint(*want.ParentLeases), optInt(got.ParentLeases)
	}
	return "", "", ""
}

func close_(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func vecClose(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !close_(a[i], b[i], tol) {
			return false
		}
	}
	return true
}

func optInt(p *int) string {
	if p == nil {
		return "absent"
	}
	return fmt.Sprint(*p)
}

func optFloat(p *float64) string {
	if p == nil {
		return "absent"
	}
	return ftoa(*p)
}

func optVec(v []float64) string {
	if v == nil {
		return "absent"
	}
	return fmtVec(v)
}
