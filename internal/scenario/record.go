package scenario

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/grm"
	"repro/internal/modeltest"
)

// Recorder captures live GRM traffic into a bundle. Install it with
// grm.Server.SetTap (or grmd -record / modeltest ClusterOptions.Tap): it
// turns every dispatched request/response pair into an event line plus a
// densely blessed outcome, stamped with the virtual-or-wall time offset
// since the first captured operation.
//
// The tap runs outside the server lock, so under concurrent clients the
// capture order is one valid serialization of the run, not necessarily
// the one a replay reproduces — rebless recorded bundles whose traffic
// was concurrent. Single-client recordings (the modeltest schedule,
// a scripted grmd session) replay exactly.
type Recorder struct {
	mu      sync.Mutex
	meta    Meta
	started bool
	start   time.Time
	lastT   int64
	events  []Event
	actual  map[int]*Outcome
}

// NewRecorder starts an empty recording. The meta's Format, Created and
// Events fields are managed by the recorder; the caller sets identity
// and replay configuration (Name, TTLMS, Level, Approx).
func NewRecorder(meta Meta) *Recorder {
	return &Recorder{meta: meta, actual: make(map[int]*Outcome)}
}

// Tap is the grm.Tap hook; pass recorder.Tap to SetTap.
func (r *Recorder) Tap(ev grm.TapEvent) {
	event, outcome := translate(ev)
	if event == nil {
		return // ping/caps/peers: no book effects, not part of the schedule
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.started {
		r.started = true
		r.start = ev.Now
	}
	t := ev.Now.Sub(r.start).Milliseconds()
	if t < r.lastT {
		// A clock running backwards (or tap-order inversion under
		// concurrency) must not produce an undecodable bundle.
		t = r.lastT
	}
	r.lastT = t
	event.T = t
	r.actual[len(r.events)] = outcome
	r.events = append(r.events, *event)
}

// translate maps one wire exchange to its bundle event and blessed
// outcome, mirroring exactly what a replay of the event would capture.
func translate(ev grm.TapEvent) (*Event, *Outcome) {
	out := &Outcome{Err: clientErrText(ev.Resp)}
	event := &Event{}
	switch req := ev.Req; {
	case req.Register != nil:
		event.Op = OpRegister
		event.Name = req.Register.Name
		event.Capacity = req.Register.Capacity
		if rep := ev.Resp.Register; rep != nil {
			p := rep.Principal
			out.Principal = &p
		}
	case req.Report != nil:
		event.Op = OpReport
		event.P = req.Report.Principal
		event.V = req.Report.Available
	case req.Share != nil:
		event.Op = OpShare
		event.P = req.Share.From
		event.To = req.Share.To
		event.Fraction = req.Share.Fraction
		event.Quantity = req.Share.Quantity
		if rep := ev.Resp.Share; rep != nil {
			t := rep.Ticket
			out.Ticket = &t
		}
	case req.Revoke != nil:
		event.Op = OpRevoke
		event.Ticket = req.Revoke.Ticket
	case req.Alloc != nil:
		event.Op = OpAlloc
		event.P = req.Alloc.Principal
		event.Amount = req.Alloc.Amount
		if rep := ev.Resp.Alloc; rep != nil {
			out.Takes = rep.Dense(len(ev.Avail))
			theta := rep.Theta
			out.Theta = &theta
			lease := rep.Lease
			out.Lease = &lease
		}
	case req.Release != nil:
		event.Op = OpRelease
		event.Lease = req.Release.Lease
	case req.Renew != nil:
		event.Op = OpRenew
		event.Lease = req.Renew.Lease
		if rep := ev.Resp.Renew; rep != nil {
			ms := rep.TTL.Milliseconds()
			out.TTLMS = &ms
		}
	default:
		return nil, nil
	}
	out.Avail = append([]float64(nil), ev.Avail...)
	leases := ev.Leases
	out.Leases = &leases
	return event, out
}

// clientErrText renders a wire error the way the LRM client surfaces it,
// so recorded expectations match what a replay's client calls return.
func clientErrText(resp *grm.Response) string {
	if resp.Err == "" {
		return ""
	}
	if resp.Code == grm.CodeNoPrincipals {
		return fmt.Sprintf("%s (remote: %s)", grm.ErrNoPrincipals.Error(), resp.Err)
	}
	return resp.Err
}

// Bundle freezes the recording into a bundle ready for WriteBundle. The
// recorder can keep capturing; later Bundle calls include later events.
func (r *Recorder) Bundle() *Bundle {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := &Bundle{
		Meta:     r.meta,
		Events:   append([]Event(nil), r.events...),
		Expected: make(map[int]*Outcome, len(r.actual)),
	}
	b.Meta.Format = FormatVersion
	b.Meta.Events = len(b.Events)
	for i, out := range r.actual {
		o := *out
		b.Expected[i] = &o
	}
	return b
}

// Len reports how many events were captured so far.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// RecordCluster runs one seeded modeltest cluster schedule with a
// recorder tapping the server, returning the captured bundle alongside
// the cluster report. The schedule is single-threaded, so the recording
// replays exactly. `created` stamps the bundle's Created field.
func RecordCluster(opts modeltest.ClusterOptions, created time.Time) (*Bundle, *modeltest.ClusterReport, error) {
	if opts.Steps <= 0 {
		opts.Steps = 100
	}
	if opts.TTL <= 0 {
		opts.TTL = 10 * time.Second
	}
	rec := NewRecorder(Meta{
		Name:    fmt.Sprintf("cluster-seed%d", opts.Seed),
		Title:   fmt.Sprintf("recorded modeltest cluster schedule (seed %d, %d steps)", opts.Seed, opts.Steps),
		Source:  "scenario record (internal/modeltest.RunCluster)",
		Created: created.UTC().Format(time.RFC3339),
		TTLMS:   opts.TTL.Milliseconds(),
	})
	opts.Tap = rec.Tap
	rep, err := modeltest.RunCluster(opts)
	if err != nil {
		return nil, rep, err
	}
	return rec.Bundle(), rep, nil
}
