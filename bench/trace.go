package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// Tracing from outside: every span is recorded by this package around a
// call into a layer's public API (or, for the WAL, by a store.Log
// decorator handed to the server). Nothing inside the program is edited.
// Spans stay in memory and are written when the pass ends.

// span is one timed call. Req ties the spans of one request together;
// Parent names the enclosing span ("" at the top).
type span struct {
	Name       string
	Start, End time.Time
	Parent     string
	Req        uint64
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// us is the span's duration in microseconds.
func (s span) us() float64 { return float64(s.dur()) / 1e3 }

// selfTime is a span's duration minus the part of its interval that its
// child spans cover. Children may overlap each other and may stick out of
// the parent; only the covered part of the parent's interval is removed.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Time }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo.Before(parent.Start) {
			lo = parent.Start
		}
		if hi.After(parent.End) {
			hi = parent.End
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var covered time.Duration
	var reach time.Time
	for _, v := range ivs {
		if v.lo.After(reach) {
			reach = v.lo
		}
		if v.hi.After(reach) {
			covered += v.hi.Sub(reach)
			reach = v.hi
		}
	}
	return parent.dur() - covered
}

// tracer collects spans from any goroutine.
type tracer struct {
	mu    sync.Mutex
	spans []span
	// on gates the WAL decorator, so the untraced comparison window of the
	// traced pass runs without recording.
	on atomic.Bool
	// current is the in-process request whose Handle call is open, so WAL
	// appends made on the server's goroutines can name their parent. Only
	// the sequential in-process probes set it.
	current atomic.Pointer[span]
}

func (t *tracer) add(s ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, s...)
	t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// since returns a copy of the spans recorded after the first mark.
func (t *tracer) since(mark int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

// timed runs fn as one span and returns it.
func (t *tracer) timed(name string, req uint64, fn func()) span {
	s := span{Name: name, Req: req, Start: time.Now()}
	fn()
	s.End = time.Now()
	t.add(s)
	return s
}

// tracedLog decorates a WAL: each Append and Sync becomes a span in the
// store layer, child of whatever request is current.
type tracedLog struct {
	store.Log
	t *tracer
}

func (l tracedLog) record(name string, fn func() error) error {
	if !l.t.on.Load() {
		return fn()
	}
	s := span{Name: name, Start: time.Now()}
	err := fn()
	s.End = time.Now()
	if cur := l.t.current.Load(); cur != nil {
		s.Parent, s.Req = cur.Name, cur.Req
	}
	l.t.add(s)
	return err
}

func (l tracedLog) Append(rec *store.Record) error {
	return l.record("store.append", func() error { return l.Log.Append(rec) })
}

func (l tracedLog) Sync() error {
	return l.record("store.sync", func() error { return l.Log.Sync() })
}

// write dumps the spans as JSON lines: name,start,end,parent,req, times in
// nanoseconds since the first span.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		return nil
	}
	epoch := t.spans[0].Start
	for _, s := range t.spans {
		if s.Start.Before(epoch) {
			epoch = s.Start
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		line := struct {
			Name   string `json:"name"`
			Start  int64  `json:"start"`
			End    int64  `json:"end"`
			Parent string `json:"parent"`
			Req    uint64 `json:"req"`
		}{s.Name, s.Start.Sub(epoch).Nanoseconds(), s.End.Sub(epoch).Nanoseconds(), s.Parent, s.Req}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
