package scenario

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/grm"
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
		d.Index, d.Op, d.Field, d.Expected, d.Actual, "  "+strings.ReplaceAll(strings.TrimRight(d.Status, "\n"), "\n", "\n  "))
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

// Replay runs the bundle against a fresh grm.Server on a virtual clock
// and compares each event's live outcome against the bundle's
// expectations, stopping at the first divergence. The returned error is
// only for infrastructure failures (listen, dial); expectation
// mismatches, and books that break the harness's check, land in
// Result.Divergence.
func Replay(b *Bundle, opts ReplayOptions) (*Result, error) {
	ttl := time.Duration(b.Meta.TTLMS) * time.Millisecond
	tol := b.Meta.Tolerance
	if tol <= 0 {
		tol = DefaultTolerance
	}
	h, err := Start(Topology{Config: core.Config{Level: b.Meta.Level}, TTL: ttl})
	if err != nil {
		return nil, fmt.Errorf("scenario: replay: %w", err)
	}
	defer h.Close()

	res := &Result{Name: b.Meta.Name, Actual: make(map[int]*Outcome)}
	var trace strings.Builder
	var offset int64 // virtual milliseconds already elapsed
	for i := range b.Events {
		ev := &b.Events[i]
		// Move the clock to the event and reap what expired in the gap,
		// so virtual time passes exactly as the log recorded it. The
		// advance op skips the implicit reap: its counted Reap is the
		// observation.
		if ev.T > offset {
			h.Clock().Advance(time.Duration(ev.T-offset) * time.Millisecond)
			offset = ev.T
			if ttl > 0 && ev.Op != OpAdvance {
				h.Reap()
			}
		}
		actual, reply := execute(h, ev)
		books, berr := h.Check()
		if books != nil {
			checkpoint(books, actual, reply)
		}
		res.Events = i + 1
		var shown *Outcome // nil renders "unchecked"
		if opts.Bless || b.Expected[i] != nil {
			shown, res.Actual[i] = actual, actual
		}
		trace.WriteString(renderLine(i, ev.T, ev, shown) + "\n")
		var field, wantS, gotS string
		if berr != nil {
			field, wantS, gotS = "books", "available in [0, reported], capacity ≥ available", berr.Error()
		} else if want := b.Expected[i]; want != nil && !opts.Bless {
			field, wantS, gotS = diffOutcome(want, actual, tol)
		}
		if field != "" {
			res.Divergence = &Divergence{Index: i, Op: ev.describe(), Field: field,
				Expected: wantS, Actual: gotS, Status: statusText(books)}
			break
		}
	}
	res.Trace = trace.String()
	return res, nil
}

// execute runs one event against the harness's leaf and captures its
// observable outcome; an allocation's reply comes back beside it, for
// checkpoint to spell its takes.
func execute(h *Harness, ev *Event) (*Outcome, *grm.AllocReply) {
	n := h.Node(0, ev.P)
	if n == nil || ev.Op == OpKill && n.Principal() != ev.P {
		switch ev.Op {
		case OpReport, OpShare, OpAlloc, OpKill:
			return &Outcome{Err: fmt.Sprintf("scenario: %s: no principal %d", ev.Op, ev.P)}, nil
		case OpRevoke, OpRelease, OpRenew:
			return &Outcome{Err: fmt.Sprintf("scenario: %s: no principal registered", ev.Op)}, nil
		}
	}
	out := &Outcome{}
	var reply *grm.AllocReply
	var err error
	switch ev.Op {
	case OpRegister:
		if n, err = h.Dial(0, ev.Name, ev.Capacity); err == nil {
			pid := n.Principal()
			out.Principal = &pid
		}
	case OpReport:
		err = n.Report(ev.V)
	case OpShare:
		share, arg := n.ShareAbsolute, ev.Quantity
		if ev.Fraction != 0 {
			share, arg = n.ShareRelative, ev.Fraction
		}
		var ticket int
		if ticket, err = share(ev.To, arg); err == nil {
			out.Ticket = &ticket
		}
	case OpRevoke:
		err = n.Revoke(ev.Ticket)
	case OpAlloc:
		if reply, err = n.Allocate(ev.Amount); err == nil {
			out.Theta, out.Lease = &reply.Theta, &reply.Lease
		}
	case OpRelease:
		err = n.Release(ev.Lease)
	case OpRenew:
		var ttl time.Duration
		if ttl, err = n.Renew(ev.Lease); err == nil {
			ms := ttl.Milliseconds()
			out.TTLMS = &ms
		}
	case OpKill:
		// Ping forces the transparent reconnect (re-register + report
		// replay) right now, so its book effects land at this event
		// instead of smearing into the next one.
		n.Kill()
		err = n.Ping()
	case OpAdvance:
		reaped := h.Reap()
		out.Reaped = &reaped
	case OpAttach:
		if err = h.Attach(attachLevels(ev)); err == nil {
			pid := h.Leaf(0).Parent().Principal()
			out.Principal = &pid
		}
	}
	if err != nil {
		return &Outcome{Err: err.Error()}, nil
	}
	return out, reply
}

// attachLevels spells an attach event's parent spec as harness levels,
// nearest first: the replayed cluster registers at the first under the
// event's name, each level at the next under its spec's Name.
func attachLevels(ev *Event) []Level {
	var levels []Level
	name := ev.Name
	for spec := ev.Parent; spec != nil; spec = spec.Parent {
		levels = append(levels, Level{Children: []string{name}, Siblings: spec.Siblings})
		name = spec.Name
	}
	return levels
}

// checkpoint captures the post-operation books into the outcome. Bundles
// record an allocation's takes as a vector as long as the served GRM's
// principal count, so that is the length the reply's pairs expand to.
func checkpoint(books *Books, out *Outcome, reply *grm.AllocReply) {
	st := books.Status[0][0]
	if reply != nil {
		out.Takes = reply.Dense(len(st.Principals))
	}
	out.Avail = availVector(st)
	leases := st.Leases
	out.Leases = &leases
	if parent := parentStatus(books); parent != nil {
		out.ParentAvail = availVector(parent)
		leases := parent.Leases
		out.ParentLeases = &leases
	}
}

// parentStatus is the books of the immediate parent, the level
// checkpoints observe; nil while none is attached.
func parentStatus(books *Books) *grm.Status {
	if len(books.Status) < 2 || len(books.Status[1]) == 0 {
		return nil
	}
	return books.Status[1][0]
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
func statusText(books *Books) string {
	if books == nil {
		return "status unavailable"
	}
	st := books.Status[0][0]
	var sb strings.Builder
	fmt.Fprintf(&sb, "leases=%d agreements=%d\n", st.Leases, st.Agreements)
	for _, p := range st.Principals {
		fmt.Fprintf(&sb, "p%d %q avail=%s reported=%s capacity=%s\n",
			p.Principal, p.Name, ftoa(p.Available), ftoa(p.Reported), ftoa(p.Capacity))
	}
	if parent := parentStatus(books); parent != nil {
		fmt.Fprintf(&sb, "parent: leases=%d avail=%s\n", parent.Leases, fmtVec(availVector(parent)))
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
	near := func(a, b float64) bool { return math.Abs(a-b) <= tol }
	nearVec := func(a, b []float64) bool { return vecClose(a, b, tol) }
	for _, m := range []mismatch{
		diffField("principal", want.Principal, got.Principal, equal, sprint),
		diffField("ticket", want.Ticket, got.Ticket, equal, sprint),
		diffField("takes", vec(want.Takes), vec(got.Takes), nearVec, fmtVec),
		diffField("theta", want.Theta, got.Theta, near, ftoa),
		diffField("lease", want.Lease, got.Lease, equal, sprint),
		diffField("ttl_ms", want.TTLMS, got.TTLMS, equal, sprint),
		diffField("reaped", want.Reaped, got.Reaped, equal, sprint),
		diffField("avail", vec(want.Avail), vec(got.Avail), nearVec, fmtVec),
		diffField("leases", want.Leases, got.Leases, equal, sprint),
		diffField("parent_avail", vec(want.ParentAvail), vec(got.ParentAvail), nearVec, fmtVec),
		diffField("parent_leases", want.ParentLeases, got.ParentLeases, equal, sprint),
	} {
		if m.field != "" {
			return m.field, m.want, m.got
		}
	}
	return "", "", ""
}

// mismatch is one outcome field that differs, with both values
// rendered; the zero mismatch is a field that agrees.
type mismatch struct{ field, want, got string }

// diffField compares one expected field with the actual one: an unset
// expectation matches anything, and an absent actual matches nothing.
func diffField[T any](field string, want, got *T, same func(a, b T) bool, show func(T) string) mismatch {
	if want == nil || got != nil && same(*want, *got) {
		return mismatch{}
	}
	m := mismatch{field, show(*want), "absent"}
	if got != nil {
		m.got = show(*got)
	}
	return m
}

func equal[T comparable](a, b T) bool { return a == b }

func sprint[T any](v T) string { return fmt.Sprint(v) }

// vec makes a vector field optional like the scalar ones: nil when unset.
func vec(v []float64) *[]float64 {
	if v == nil {
		return nil
	}
	return &v
}

func vecClose(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}
