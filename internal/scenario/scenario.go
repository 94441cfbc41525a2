// Package scenario implements the record/replay regression corpus: every
// scenario is an on-disk bundle — a directory holding meta.json
// (metadata), events.jsonl (a timestamped log of GRM operations), and
// expected.jsonl (outcome checkpoints) — and a replay driver re-runs the
// bundle against a real grm.Server on a virtual clock, diffing live
// outcomes against the checkpoints with first-divergence reporting.
//
// Bundles come from three sources: hand-authored bundles (the checked-in
// scenarios/ directory, whose expectations cmd/scenario rebless writes),
// live traffic captured through the grm record tap (Recorder, grmd
// -record), and seeded modeltest cluster schedules (cmd/scenario record).
// Whatever the source, replay is deterministic: the server runs on
// vclock.Virtual, event timestamps drive the clock, and leases expire
// exactly when the log says time passed — so a bundle that replays
// cleanly today is a permanent regression test.
package scenario

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// FormatVersion is the bundle format this package reads and writes.
const FormatVersion = 1

// Operation names events.jsonl may use.
const (
	OpRegister = "register"
	OpReport   = "report"
	OpShare    = "share"
	OpRevoke   = "revoke"
	OpAlloc    = "alloc"
	OpRelease  = "release"
	OpRenew    = "renew"
	OpKill     = "kill"
	OpAdvance  = "advance"
	OpAttach   = "attach"
)

// Meta is the bundle's meta.json: identity, the server configuration the
// replay must reproduce, and the event-count cross-check that catches
// truncated logs.
type Meta struct {
	// Format is the bundle format version; decoding rejects unknown ones.
	Format int `json:"format"`
	// Name identifies the bundle (conventionally the directory name).
	Name string `json:"name"`
	// Title and Source are documentation: what the scenario models and
	// where it comes from (a paper figure, an incident, a recording).
	Title  string `json:"title,omitempty"`
	Source string `json:"source,omitempty"`
	// Created is an RFC 3339 stamp of when the bundle was produced.
	Created string `json:"created,omitempty"`
	// Events is the number of lines events.jsonl must hold; a shorter
	// file is a truncated log and fails decoding.
	Events int `json:"events"`
	// TTLMS is the lease TTL in virtual milliseconds (0 = leases never
	// expire). Armed after the first register so the background reaper
	// stays off and expiry happens only on the schedule's clock.
	TTLMS int64 `json:"ttl_ms,omitempty"`
	// Level configures the replay server's allocator (core.Config),
	// mirroring grmd's -level flag.
	Level int `json:"level,omitempty"`
	// Tolerance is the float comparison tolerance for expectations
	// (takes, theta, availability). 0 uses DefaultTolerance.
	Tolerance float64 `json:"tolerance,omitempty"`
}

// DefaultTolerance absorbs cross-platform last-bit drift (e.g. fused
// multiply-add differences) without masking real divergence.
const DefaultTolerance = 1e-9

// ParentSpec describes the parent GRM an attach event builds: sibling
// clusters registered at the parent and the relative share each grants
// the attaching cluster, so the child can borrow through the federation.
// A nested Parent stacks one more GRM level above this one, so a single
// attach event can raise a whole tree branch (DESIGN.md §7d).
type ParentSpec struct {
	Siblings []SiblingSpec `json:"siblings"`
	// Name is the cluster name this parent registers under at its own
	// parent; required when Parent is set.
	Name string `json:"name,omitempty"`
	// Parent, when set, attaches this parent GRM to a grandparent built
	// from the nested spec — recursively, capped at maxAttachLevels —
	// so borrows chain upward exactly as in the live grmd topology.
	Parent *ParentSpec `json:"parent,omitempty"`
}

// maxAttachLevels caps how many GRM levels one attach event may stack
// above the replayed server — enough for the paper's site/region/root
// topologies while keeping fuzzed bundles from raising server chains of
// arbitrary depth.
const maxAttachLevels = 4

// validate checks one level of a parent spec (and, recursively, the
// levels nested above it). level is 1 for the immediate parent.
func (p *ParentSpec) validate(level int) error {
	if level > maxAttachLevels {
		return fmt.Errorf("parent nesting deeper than %d levels", maxAttachLevels)
	}
	for i, sib := range p.Siblings {
		if sib.Name == "" {
			return fmt.Errorf("level %d sibling %d: empty name", level, i)
		}
		if sib.Capacity < 0 || math.IsNaN(sib.Capacity) || math.IsInf(sib.Capacity, 0) {
			return fmt.Errorf("level %d sibling %d: bad capacity %g", level, i, sib.Capacity)
		}
		if sib.Fraction < 0 || sib.Fraction > 1 || math.IsNaN(sib.Fraction) {
			return fmt.Errorf("level %d sibling %d: bad fraction %g", level, i, sib.Fraction)
		}
	}
	if p.Parent != nil {
		if p.Name == "" {
			return fmt.Errorf("level %d: empty cluster name for nested parent", level)
		}
		return p.Parent.validate(level + 1)
	}
	return nil
}

// levels counts the GRM levels the spec stacks above the replayed
// server (1 = a single parent).
func (p *ParentSpec) levels() int {
	n := 0
	for s := p; s != nil; s = s.Parent {
		n++
	}
	return n
}

// SiblingSpec is one sibling principal at the parent GRM.
type SiblingSpec struct {
	Name     string  `json:"name"`
	Capacity float64 `json:"capacity"`
	// Fraction is the relative share the sibling grants the attaching
	// cluster (0 = none).
	Fraction float64 `json:"fraction,omitempty"`
}

// Event is one line of events.jsonl: a timestamped GRM operation. T is
// the offset in virtual milliseconds from the bundle start and must be
// non-decreasing; replay advances the virtual clock to each event's T
// before executing it (reaping expired leases when the clock moved), so
// recorded wall-time gaps become deterministic virtual-time gaps.
type Event struct {
	T  int64  `json:"t"`
	Op string `json:"op"`
	// P is the acting principal (ignored by register, which creates or
	// rebinds one, and attach).
	P int `json:"p,omitempty"`
	// Name and Capacity parameterize register (principal identity) and
	// attach (the cluster's name at the parent).
	Name     string  `json:"name,omitempty"`
	Capacity float64 `json:"capacity,omitempty"`
	// V is the reported availability (report).
	V float64 `json:"v,omitempty"`
	// To, Fraction, Quantity parameterize share.
	To       int     `json:"to,omitempty"`
	Fraction float64 `json:"fraction,omitempty"`
	Quantity float64 `json:"quantity,omitempty"`
	// Ticket names the agreement to revoke.
	Ticket int `json:"ticket,omitempty"`
	// Amount is the allocation request (alloc).
	Amount float64 `json:"amount,omitempty"`
	// Lease names the lease to release or renew.
	Lease int `json:"lease,omitempty"`
	// Parent describes the parent GRM an attach event builds.
	Parent *ParentSpec `json:"parent,omitempty"`
}

// Outcome is one line of expected.jsonl: the checkpoint for event index
// I. Only present fields are compared, so expectations can be sparse;
// bundles written by the recorder or by rebless pin every field the
// replay can observe. Err empty means the operation must succeed; "*"
// accepts any error; anything else must match the error text exactly.
type Outcome struct {
	I   int    `json:"i"`
	Err string `json:"err,omitempty"`
	// Principal is the id assigned by register / bound at attach.
	Principal *int `json:"principal,omitempty"`
	// Ticket is the agreement token returned by share.
	Ticket *int `json:"ticket,omitempty"`
	// Takes, Theta, Lease are the allocation decision.
	Takes []float64 `json:"takes,omitempty"`
	Theta *float64  `json:"theta,omitempty"`
	Lease *int      `json:"lease,omitempty"`
	// TTLMS is the renewed time-to-live returned by renew.
	TTLMS *int64 `json:"ttl_ms,omitempty"`
	// Reaped is the number of leases an advance op reclaimed.
	Reaped *int `json:"reaped,omitempty"`
	// Avail and Leases checkpoint the server books after the operation.
	Avail  []float64 `json:"avail,omitempty"`
	Leases *int      `json:"leases,omitempty"`
	// ParentAvail and ParentLeases checkpoint the parent GRM's books
	// (present only while a parent is attached).
	ParentAvail  []float64 `json:"parent_avail,omitempty"`
	ParentLeases *int      `json:"parent_leases,omitempty"`
}

// validOps is the closed vocabulary of event operations.
var validOps = map[string]bool{
	OpRegister: true, OpReport: true, OpShare: true, OpRevoke: true,
	OpAlloc: true, OpRelease: true, OpRenew: true, OpKill: true,
	OpAdvance: true, OpAttach: true,
}

// Validate checks one event's internal consistency (field presence and
// ranges; cross-event checks like principal existence happen at replay).
func (e *Event) Validate() error {
	if e.T < 0 {
		return fmt.Errorf("negative timestamp %d", e.T)
	}
	if !validOps[e.Op] {
		return fmt.Errorf("unknown op %q", e.Op)
	}
	if e.P < 0 {
		return fmt.Errorf("%s: negative principal %d", e.Op, e.P)
	}
	switch e.Op {
	case OpRegister:
		if e.Name == "" {
			return fmt.Errorf("register: empty name")
		}
		if e.Capacity < 0 || math.IsNaN(e.Capacity) || math.IsInf(e.Capacity, 0) {
			return fmt.Errorf("register: bad capacity %g", e.Capacity)
		}
	case OpReport:
		if e.V < 0 || math.IsNaN(e.V) || math.IsInf(e.V, 0) {
			return fmt.Errorf("report: bad availability %g", e.V)
		}
	case OpShare:
		if e.To < 0 {
			return fmt.Errorf("share: negative target %d", e.To)
		}
		rel, abs := e.Fraction != 0, e.Quantity != 0
		if rel == abs {
			return fmt.Errorf("share: exactly one of fraction/quantity must be set")
		}
		if e.Fraction < 0 || e.Fraction > 1 || math.IsNaN(e.Fraction) {
			return fmt.Errorf("share: bad fraction %g", e.Fraction)
		}
		if e.Quantity < 0 || math.IsNaN(e.Quantity) || math.IsInf(e.Quantity, 0) {
			return fmt.Errorf("share: bad quantity %g", e.Quantity)
		}
	case OpRevoke:
		if e.Ticket < 0 {
			return fmt.Errorf("revoke: negative ticket %d", e.Ticket)
		}
	case OpAlloc:
		if math.IsNaN(e.Amount) || math.IsInf(e.Amount, 0) {
			return fmt.Errorf("alloc: bad amount %g", e.Amount)
		}
	case OpRelease, OpRenew:
		if e.Lease < 0 {
			return fmt.Errorf("%s: negative lease %d", e.Op, e.Lease)
		}
	case OpAttach:
		if e.Name == "" {
			return fmt.Errorf("attach: empty cluster name")
		}
		if e.Parent == nil {
			return fmt.Errorf("attach: missing parent spec")
		}
		if err := e.Parent.validate(1); err != nil {
			return fmt.Errorf("attach: %w", err)
		}
	}
	return nil
}

// describe renders an event compactly for traces and divergence reports.
func (e *Event) describe() string {
	switch e.Op {
	case OpRegister:
		return fmt.Sprintf("register %q cap=%s", e.Name, ftoa(e.Capacity))
	case OpReport:
		return fmt.Sprintf("report p%d %s", e.P, ftoa(e.V))
	case OpShare:
		if e.Fraction != 0 {
			return fmt.Sprintf("share p%d->p%d frac=%s", e.P, e.To, ftoa(e.Fraction))
		}
		return fmt.Sprintf("share p%d->p%d qty=%s", e.P, e.To, ftoa(e.Quantity))
	case OpRevoke:
		return fmt.Sprintf("revoke ticket=%d", e.Ticket)
	case OpAlloc:
		return fmt.Sprintf("alloc p%d %s", e.P, ftoa(e.Amount))
	case OpRelease:
		return fmt.Sprintf("release lease=%d", e.Lease)
	case OpRenew:
		return fmt.Sprintf("renew lease=%d", e.Lease)
	case OpKill:
		return fmt.Sprintf("kill p%d", e.P)
	case OpAdvance:
		return "advance"
	case OpAttach:
		if lv := e.Parent.levels(); lv > 1 {
			return fmt.Sprintf("attach %q siblings=%d levels=%d", e.Name, len(e.Parent.Siblings), lv)
		}
		return fmt.Sprintf("attach %q siblings=%d", e.Name, len(e.Parent.Siblings))
	default:
		return e.Op
	}
}

// describeOutcome renders a checkpoint deterministically (fixed field
// order) so two identical outcomes always render to identical bytes.
func describeOutcome(o *Outcome) string {
	if o == nil {
		return "unchecked"
	}
	var parts []string
	if o.Err != "" {
		parts = append(parts, fmt.Sprintf("err=%q", o.Err))
	}
	if o.Principal != nil {
		parts = append(parts, fmt.Sprintf("principal=%d", *o.Principal))
	}
	if o.Ticket != nil {
		parts = append(parts, fmt.Sprintf("ticket=%d", *o.Ticket))
	}
	if o.Takes != nil {
		parts = append(parts, "takes="+fmtVec(o.Takes))
	}
	if o.Theta != nil {
		parts = append(parts, "theta="+ftoa(*o.Theta))
	}
	if o.Lease != nil {
		parts = append(parts, fmt.Sprintf("lease=%d", *o.Lease))
	}
	if o.TTLMS != nil {
		parts = append(parts, fmt.Sprintf("ttl=%dms", *o.TTLMS))
	}
	if o.Reaped != nil {
		parts = append(parts, fmt.Sprintf("reaped=%d", *o.Reaped))
	}
	if o.Avail != nil {
		parts = append(parts, "avail="+fmtVec(o.Avail))
	}
	if o.Leases != nil {
		parts = append(parts, fmt.Sprintf("leases=%d", *o.Leases))
	}
	if o.ParentAvail != nil {
		parts = append(parts, "parent_avail="+fmtVec(o.ParentAvail))
	}
	if o.ParentLeases != nil {
		parts = append(parts, fmt.Sprintf("parent_leases=%d", *o.ParentLeases))
	}
	if len(parts) == 0 {
		return "ok"
	}
	return strings.Join(parts, " ")
}

// renderLine formats one trace line: the event and its checkpoint. The
// replay trace renders actual outcomes, BundleTrace renders expected
// ones; the two are byte-identical exactly when the replay diverged
// nowhere — the property the record→replay round-trip test pins.
func renderLine(i int, t int64, ev *Event, out *Outcome) string {
	return fmt.Sprintf("%4d +%s %s | %s", i, msDur(t), ev.describe(), describeOutcome(out))
}

// msDur renders a millisecond offset as a duration.
func msDur(ms int64) time.Duration { return time.Duration(ms) * time.Millisecond }

// ftoa renders a float the way the trace and the divergence report show
// values: shortest representation that round-trips.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// fmtVec renders a float vector compactly and stably.
func fmtVec(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = ftoa(x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
