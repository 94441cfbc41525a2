package grm

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grm/faultnet"
	"repro/internal/grm/transport"
)

// TestBackoffBoundedWithoutMaxBackoff is the regression test for the
// unbounded-doubling overflow: with MaxBackoff == 0 the delay used to
// double without a cap, overflowing into a negative duration at high
// attempt counts and silently disabling backoff.
func TestBackoffBoundedWithoutMaxBackoff(t *testing.T) {
	l := &LRM{cfg: DialConfig{Backoff: time.Second}}
	for _, attempt := range []int{1, 2, 10, 63, 64, 65, 100, 500} {
		d := l.backoff(attempt)
		if d <= 0 {
			t.Fatalf("backoff(%d) = %v, overflowed", attempt, d)
		}
		if d > backoffCeiling {
			t.Fatalf("backoff(%d) = %v, beyond the %v ceiling", attempt, d, backoffCeiling)
		}
	}
	// An explicit MaxBackoff still caps as before.
	l = &LRM{cfg: DialConfig{Backoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond}}
	for attempt := 1; attempt <= 200; attempt++ {
		if d := l.backoff(attempt); d <= 0 || d > 80*time.Millisecond {
			t.Fatalf("backoff(%d) = %v, want within (0, 80ms]", attempt, d)
		}
	}
}

// TestRetryAfterRestartRebindsPrincipal kills the connection mid-session
// and restarts the GRM from scratch on the same address: the LRM's next
// operation reconnects, re-registers under a *different* principal id,
// and the retried request must carry the rebound id — not the one
// captured when the envelope was first built.
func TestRetryAfterRestartRebindsPrincipal(t *testing.T) {
	s1 := NewServer(core.Config{}, nil)
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s1.Serve(l1)
	addr := l1.Addr().String()

	conns := make(chan *faultnet.Conn, 8)
	cfg := DialConfig{
		Timeout:    2 * time.Second,
		RetryMax:   5,
		Backoff:    time.Millisecond,
		MaxBackoff: 16 * time.Millisecond,
		Dialer:     faultnet.Dialer(nil, conns),
	}
	mover, err := DialWithConfig(addr, "mover", 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mover.Close()
	if got := mover.Principal(); got != 0 {
		t.Fatalf("principal before restart = %d, want 0", got)
	}
	if err := mover.Report(4); err != nil {
		t.Fatal(err)
	}

	// Sever the live connection mid-session and restart the GRM with no
	// recovered state on the same port.
	live := <-conns
	s1.Close()
	live.Kill()
	s2 := NewServer(core.Config{}, nil)
	var l2 net.Listener
	for i := 0; ; i++ {
		l2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i >= 100 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	go s2.Serve(l2)
	t.Cleanup(func() { s2.Close() })

	// A squatter takes principal 0 on the fresh server, so "mover"
	// re-registers under a *different* id than the one it held (and than
	// the zero value) — any stale principal in the retried envelope now
	// lands in the squatter's slot.
	squatter, err := Dial(addr, "squatter", 5)
	if err != nil {
		t.Fatal(err)
	}
	defer squatter.Close()
	if got := squatter.Principal(); got != 0 {
		t.Fatalf("squatter principal = %d, want 0", got)
	}

	// This Report's first attempt fails on the dead connection; the
	// retry reconnects, re-registers "mover" as principal 1, replays the
	// last report, and must send the retried envelope with the new id.
	if err := mover.Report(7); err != nil {
		t.Fatalf("report after restart: %v", err)
	}
	if got := mover.Principal(); got != 1 {
		t.Fatalf("principal after restart = %d, want 1", got)
	}
	avail, _, err := mover.Capacities()
	if err != nil {
		t.Fatal(err)
	}
	if len(avail) != 2 || math.Abs(avail[1]-7) > 1e-9 {
		t.Fatalf("availability after rebound report = %v, want mover's slot [1] = 7", avail)
	}
	if math.Abs(avail[0]-5) > 1e-9 {
		t.Fatalf("squatter's availability = %g, want its registered 5 — a stale principal id leaked into its slot", avail[0])
	}
}

// handshakeStub listens, reads a hello off every accepted connection and
// lets answer reply before hanging up — a peer that does not speak
// protocol v3.
func handshakeStub(t *testing.T, answer func(c net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				if _, err := io.ReadFull(c, make([]byte, 5)); err == nil {
					answer(c)
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestDialPreV2PeerSaysWhy dials peers that predate protocol v3: one that
// hangs up on the hello (what a gob decoder does with it), one that
// answers with bytes that are not the magic, one that settles on version
// 1 and one on version 2. Each costs exactly one connection, and the
// error tells an operator which address failed to speak which protocol.
func TestDialPreV2PeerSaysWhy(t *testing.T) {
	for name, tc := range map[string]struct {
		answer func(c net.Conn)
		check  func(err error) bool
	}{
		"hangs up": {
			answer: func(c net.Conn) {},
			check:  func(err error) bool { return errors.Is(err, io.EOF) },
		},
		"answers gob": {
			answer: func(c net.Conn) { c.Write([]byte{0x1f, 0xff, 0x81, 0x03, 0x01, 0x01}) },
			check:  func(err error) bool { return errors.Is(err, transport.ErrNotBinary) },
		},
		"settles on v1": {
			answer: func(c net.Conn) { transport.WriteHello(c, 1) },
			check:  func(err error) bool { return strings.Contains(err.Error(), "protocol version 1") },
		},
		"settles on v2": {
			answer: func(c net.Conn) { transport.WriteHello(c, 2) },
			check:  func(err error) bool { return strings.Contains(err.Error(), "protocol version 2") },
		},
	} {
		t.Run(name, func(t *testing.T) {
			addr := handshakeStub(t, tc.answer)
			var dials atomic.Int64
			cfg := DefaultDialConfig()
			cfg.Dialer = func(addr string) (net.Conn, error) {
				dials.Add(1)
				return net.DialTimeout("tcp", addr, time.Second)
			}
			_, err := DialWithConfig(addr, "new", 10, cfg)
			if err == nil {
				t.Fatal("connected to a peer that does not speak protocol v3")
			}
			if !tc.check(err) {
				t.Errorf("err = %v: the cause is lost", err)
			}
			if msg := err.Error(); !strings.Contains(msg, addr) || !strings.Contains(msg, "binary protocol v3") {
				t.Errorf("err = %q, want it to name %s and binary protocol v3", msg, addr)
			}
			if n := dials.Load(); n != 1 {
				t.Errorf("%d connections dialed, want 1: a failed handshake is not retried on another wire", n)
			}
		})
	}
}

// TestSilentPeerDialsOncePerAttempt points an LRM at a listener that
// accepts and never answers the hello. Dialing fails within Timeout on
// one connection; an operation on the disconnected LRM retries under
// RetryMax like any transport error — 1 + RetryMax connections, each a
// fresh handshake, none of them a second try in another protocol.
func TestSilentPeerDialsOncePerAttempt(t *testing.T) {
	silent := handshakeStub(t, func(c net.Conn) { io.Copy(io.Discard, c) })
	_, healthy := startServer(t, core.Config{})

	var dials atomic.Int64
	var target atomic.Value
	target.Store(silent)
	conns := make(chan *faultnet.Conn, 16)
	dial := faultnet.Dialer(nil, conns)
	cfg := DialConfig{
		Timeout:  100 * time.Millisecond,
		RetryMax: 2,
		Backoff:  time.Millisecond,
		Dialer: func(string) (net.Conn, error) {
			dials.Add(1)
			return dial(target.Load().(string))
		},
	}
	start := time.Now()
	_, err := DialWithConfig(silent, "quiet", 10, cfg)
	if nerr := net.Error(nil); !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("dial of a silent peer: err = %v, want a timeout", err)
	}
	if elapsed := time.Since(start); elapsed >= 2*cfg.Timeout {
		t.Errorf("dial of a silent peer took %v, want one handshake of at most %v", elapsed, cfg.Timeout)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d connections dialed, want 1", n)
	}

	// Connect for real, then lose the GRM to the silent peer.
	target.Store(healthy)
	l, err := DialWithConfig(healthy, "quiet", 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	target.Store(silent)
	(<-conns).Kill() // the silent dial's connection
	(<-conns).Kill() // the live one
	if err := l.Ping(); err == nil {
		t.Fatal("ping reached a GRM through a peer that never answers")
	}
	// The LRM is now disconnected: every attempt of the next operation dials.
	dials.Store(0)
	if err := l.Ping(); err == nil {
		t.Fatal("ping reached a GRM through a peer that never answers")
	}
	if n, want := dials.Load(), int64(1+cfg.RetryMax); n != want {
		t.Errorf("%d connections dialed, want 1 + RetryMax = %d", n, want)
	}
}

// TestCutHandshakeDoesNotChangeWire is the sticky-downgrade regression:
// a handshake that dies of a transport fault says nothing about what the
// peer speaks. The reconnect after it must open with the hello again —
// the pipelined protocol — and serve the operation.
func TestCutHandshakeDoesNotChangeWire(t *testing.T) {
	_, addr := startServer(t, core.Config{})
	var dials atomic.Int64
	first := make(chan *faultnet.Conn, 1)
	var last *openerConn
	cfg := DialConfig{
		Timeout:  2 * time.Second,
		RetryMax: 3,
		Backoff:  time.Millisecond,
		Dialer: func(addr string) (net.Conn, error) {
			raw, err := net.DialTimeout("tcp", addr, time.Second)
			if err != nil {
				return nil, err
			}
			switch dials.Add(1) {
			case 1:
				c := faultnet.Wrap(raw, nil)
				first <- c
				return c, nil
			case 2:
				// Die two bytes into the hello.
				f := faultnet.NewFaults()
				f.ResetAfterBytes(1)
				return faultnet.Wrap(raw, f), nil
			default:
				last = &openerConn{Conn: raw}
				return last, nil
			}
		},
	}
	l, err := DialWithConfig(addr, "site", 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	(<-first).Kill()
	if err := l.Ping(); err != nil {
		t.Fatalf("ping across a cut handshake and a healthy redial: %v", err)
	}
	if n := dials.Load(); n != 3 {
		t.Fatalf("%d connections dialed, want 3 (live, cut, healthy)", n)
	}
	if got, want := last.opener(), []byte{0x00, 'G', 'R', 'M', transport.Version}; !bytes.Equal(got, want) {
		t.Fatalf("the redial after a cut handshake opened with %x, want the hello %x", got, want)
	}
}

// openerConn remembers the first bytes written through it.
type openerConn struct {
	net.Conn
	mu    sync.Mutex
	wrote []byte
}

func (c *openerConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if room := 5 - len(c.wrote); room > 0 {
		c.wrote = append(c.wrote, p[:min(room, len(p))]...)
	}
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *openerConn) opener() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.wrote...)
}

// TestPipelinedClientSharesOneConnection runs many concurrent operations
// on one LRM: they must all succeed over a single dialed
// connection (the pipelining mux), never by opening more.
func TestPipelinedClientSharesOneConnection(t *testing.T) {
	_, addr := startServer(t, core.Config{})
	var dials atomic.Int64
	cfg := DefaultDialConfig()
	cfg.Dialer = func(addr string) (net.Conn, error) {
		dials.Add(1)
		return net.DialTimeout("tcp", addr, time.Second)
	}
	l, err := DialWithConfig(addr, "busy", 100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 96)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if err := l.Ping(); err != nil {
				errs <- err
			}
			if err := l.Report(float64(g)); err != nil {
				errs <- err
			}
			if _, _, err := l.Capacities(); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("%d connections dialed, want 1 (pipelined)", n)
	}
}

// TestLateReplyReachesNoLaterCall delays one reply past its call's deadline
// on a pipelined connection that stays open, then issues 100 more calls on
// it. The timed-out call abandoned its recycled call record, so the late
// reply is dropped by the reader and every later call gets the answer to
// its own request: its own amount, a lease of its own.
func TestLateReplyReachesNoLaterCall(t *testing.T) {
	s := NewServer(core.Config{}, nil)
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	faults := faultnet.NewFaults() // on the server's side: its reads and writes are what gets slow
	go s.Serve(faultnet.WrapListener(raw, faults))
	defer s.Close()

	conn, err := net.Dial("tcp", raw.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	w, err := newBinWire(conn, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	resp, err := w.do(&Request{Register: &RegisterRequest{Name: "site", Capacity: 1e6}}, 10*time.Second)
	if err != nil || resp.Register == nil {
		t.Fatalf("register: %v %+v", err, resp)
	}
	who := resp.Register.Principal
	// Warm the record pool with an answered call, so the calls below reuse
	// records.
	if _, err := w.do(&Request{Ping: &PingRequest{}}, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	faults.SetLatency(150 * time.Millisecond)
	_, err = w.do(&Request{Alloc: &AllocRequest{Principal: who, Amount: 777}}, 30*time.Millisecond)
	if nerr, ok := err.(net.Error); !ok || !nerr.Timeout() {
		t.Fatalf("delayed call: want a timeout, got %v", err)
	}
	faults.SetLatency(0)

	leases := map[int]bool{}
	for i := 0; i < 100; i++ {
		amount := float64(i + 1)
		resp, err := w.do(&Request{Alloc: &AllocRequest{Principal: who, Amount: amount}}, 10*time.Second)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if resp.Alloc == nil {
			t.Fatalf("call %d: not an allocation reply: %+v", i, resp)
		}
		var sum float64
		for _, take := range resp.Alloc.Takes {
			sum += take
		}
		if sum != amount {
			t.Fatalf("call %d asked for %v and was answered with takes of %v: another call's reply", i, amount, sum)
		}
		if leases[resp.Alloc.Lease] {
			t.Fatalf("call %d: lease %d answered twice", i, resp.Alloc.Lease)
		}
		leases[resp.Alloc.Lease] = true
	}
	// The delayed allocation was committed; its reply went nowhere.
	if st, err := s.Status(); err != nil || st.Leases != 101 {
		t.Fatalf("status: %v, %d leases, want 101", err, st.Leases)
	}
}

// TestWrongKindReplyIsAnError serves LRMs from a handler that, once the
// first LRM has registered, answers every request with a success reply of
// another kind. Every LRM method — Dial's register included — must return
// that as an error, after one request: a reply that answers another
// question is refused like any error reply, not retried.
func TestWrongKindReplyIsAnError(t *testing.T) {
	answers := []*Response{
		kindRegister: {Register: &RegisterReply{Principal: 1}},
		kindReport:   reportAck,
		kindShare:    {Share: &ShareReply{Ticket: 2}},
		kindRevoke:   revokeAck,
		kindAlloc:    {Alloc: &AllocReply{Sources: []int{1}, Takes: []float64{1}, Lease: 3}},
		kindRelease:  releaseAck,
		kindRenew:    {Renew: &RenewReply{TTL: time.Second}},
		kindCaps:     {Caps: &CapsReply{Available: []float64{1}, Capacities: []float64{1}}},
		kindPeers:    {Peers: &PeersReply{Names: []string{"a"}}},
		kindPing:     pingAck,
	}
	var wrong atomic.Bool
	var served atomic.Int64
	tr := serveRequests(func(req *Request) *Response {
		served.Add(1)
		k := req.kind()
		if wrong.Load() {
			k = k%kindPing + 1 // the next kind, round the ring
		}
		return answers[k]
	}, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go tr.Serve(l)
	defer tr.Close()
	cfg := DefaultDialConfig()
	lrm, err := DialWithConfig(l.Addr().String(), "a", 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer lrm.Close()
	wrong.Store(true)

	for name, call := range map[string]func() error{
		"Dial": func() error {
			other, err := DialWithConfig(l.Addr().String(), "b", 10, cfg)
			if err == nil {
				other.Close()
			}
			return err
		},
		"Report":        func() error { return lrm.Report(1) },
		"Ping":          lrm.Ping,
		"ShareRelative": func() error { _, err := lrm.ShareRelative(1, 0.5); return err },
		"ShareAbsolute": func() error { _, err := lrm.ShareAbsolute(1, 5); return err },
		"Revoke":        func() error { return lrm.Revoke(2) },
		"Allocate":      func() error { _, err := lrm.Allocate(1); return err },
		"Release":       func() error { return lrm.Release(3) },
		"Renew":         func() error { _, err := lrm.Renew(3); return err },
		"Capacities":    func() error { _, _, err := lrm.Capacities(); return err },
		"Peers":         func() error { _, err := lrm.Peers(); return err },
	} {
		before := served.Load()
		if err := call(); err == nil || !strings.Contains(err.Error(), "malformed reply") {
			t.Errorf("%s answered with another kind's payload: err %v, want a malformed reply", name, err)
		}
		if n := served.Load() - before; n != 1 {
			t.Errorf("%s sent %d requests, want 1", name, n)
		}
	}
}

// TestPipelinedRepliesReachTheirCallers keeps 8 goroutines' worth of 32
// allocations each in flight on one LRM, each for an amount no other call
// asks for, over rounds that reuse the request and call records at both
// ends. Every caller must be answered with its own allocation — takes
// that sum to its amount — under a lease no other reply names, and every
// lease must release. Then the connection is severed mid-burst: a call may
// fail, or be retried on a new connection, but none may be handed another
// caller's reply.
func TestPipelinedRepliesReachTheirCallers(t *testing.T) {
	s, addr := startServer(t, core.Config{})
	conns := make(chan *faultnet.Conn, 16)
	cfg := DefaultDialConfig()
	cfg.Dialer = faultnet.Dialer(nil, conns)
	cfg.Backoff = time.Millisecond
	lrm, err := DialWithConfig(addr, "big", 1e9, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer lrm.Close()
	live := <-conns

	const callers, inflight = 8, 32
	next := 0.0 // the last amount asked for
	burst := func(sever func()) (failed int) {
		var mu sync.Mutex
		var wg sync.WaitGroup
		var answered atomic.Int64
		var leases []int
		seen := map[int]bool{}
		for c := 0; c < callers*inflight; c++ {
			next++
			wg.Add(1)
			go func(amount float64) {
				defer wg.Done()
				reply, err := lrm.Allocate(amount)
				if err == nil && answered.Add(1) == inflight && sever != nil {
					sever()
				}
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					failed++
					return
				}
				var sum float64
				for _, take := range reply.Takes {
					sum += take
				}
				if sum != amount {
					t.Errorf("asked for %v and was answered with takes of %v: another caller's reply", amount, sum)
				}
				if seen[reply.Lease] {
					t.Errorf("lease %d answered twice", reply.Lease)
				}
				seen[reply.Lease] = true
				leases = append(leases, reply.Lease)
			}(next)
		}
		wg.Wait()
		for _, lease := range leases {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := lrm.Release(lease); err != nil {
					t.Errorf("release %d: %v", lease, err)
				}
			}()
		}
		wg.Wait()
		return failed
	}
	for round := 0; round < 3; round++ {
		if failed := burst(nil); failed > 0 {
			t.Fatalf("round %d: %d allocations failed on a healthy connection", round, failed)
		}
	}
	if st, err := s.Status(); err != nil || st.Leases != 0 {
		t.Fatalf("status: %v, %d leases outstanding after every release", err, st.Leases)
	}
	failed := burst(live.Kill)
	select {
	case <-conns:
	default:
		t.Fatal("the burst ran to its end on the severed connection")
	}
	t.Logf("severed mid-burst: %d of %d allocations failed", failed, callers*inflight)
	if failed := burst(nil); failed > 0 {
		t.Fatalf("%d allocations failed on the redialed connection", failed)
	}
}

// stubGRM is a hand-written GRM on a loopback listener: it completes the
// v2 handshake on every connection and hands each request frame, with its
// id, to serve, which answers through reply — at once, later, or never.
// serve runs on the connection's reader, one frame at a time.
func stubGRM(t *testing.T, serve func(id uint64, req *Request, reply func(id uint64, resp *Response))) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				br := bufio.NewReader(c)
				if _, err := transport.ReadHello(br); err != nil {
					return
				}
				if err := transport.WriteHello(c, transport.Version); err != nil {
					return
				}
				fr, fw := transport.NewFrameReader(br), transport.NewFrameWriter(c)
				reply := func(id uint64, resp *Response) {
					fw.WriteFrame(id, func(dst []byte) ([]byte, error) { return appendResponse(dst, resp) })
				}
				var call wireCall
				for {
					id, envelope, err := fr.ReadFrame()
					if err != nil || call.decode(envelope) != nil {
						return
					}
					serve(id, &call.req, reply)
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestPipelinedIDsStaySmall keeps 32 operations in flight on one LRM for
// 2048 requests. An id goes back into use when its reply arrives, so no id
// exceeds the most requests ever in flight at once, and every one is a
// one-byte uvarint on the wire; a counter would have reached 2049.
func TestPipelinedIDsStaySmall(t *testing.T) {
	var requests atomic.Int64
	var maxID atomic.Uint64
	addr := stubGRM(t, func(id uint64, req *Request, reply func(uint64, *Response)) {
		requests.Add(1)
		maxID.Store(max(maxID.Load(), id))
		if req.Register != nil {
			reply(id, &Response{Register: &RegisterReply{}})
			return
		}
		reply(id, pingAck)
	})
	l, err := Dial(addr, "busy", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const callers, each = 32, 64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := l.Ping(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := requests.Load(); n != 1+callers*each {
		t.Fatalf("the GRM saw %d requests, want %d", n, 1+callers*each)
	}
	if id := maxID.Load(); id > callers {
		t.Fatalf("the largest request id was %d, want at most %d: the calls in flight at once", id, callers)
	}
}

// TestTimedOutIDIsNotReused answers one allocation only after its call
// has timed out, immediately before the reply to the next call. The
// timed-out id must not have gone back into use: the late reply is
// dropped, and each later call gets its own answer under an id of its own.
func TestTimedOutIDIsNotReused(t *testing.T) {
	var mu sync.Mutex
	var ids []uint64
	var late uint64 // the id of the allocation answered late; serve's own
	addr := stubGRM(t, func(id uint64, req *Request, reply func(uint64, *Response)) {
		mu.Lock()
		ids = append(ids, id)
		mu.Unlock()
		if req.Alloc != nil && req.Alloc.Amount == 777 {
			late = id
			return
		}
		if late != 0 {
			reply(late, &Response{Alloc: &AllocReply{Sources: []int{0}, Takes: []float64{777}, Lease: 777}})
			late = 0
		}
		if req.Alloc != nil {
			reply(id, &Response{Alloc: &AllocReply{Sources: []int{0}, Takes: []float64{req.Alloc.Amount}, Lease: int(req.Alloc.Amount)}})
			return
		}
		reply(id, pingAck)
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	w, err := newBinWire(conn, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if _, err := w.do(&Request{Ping: &PingRequest{}}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	_, err = w.do(&Request{Alloc: &AllocRequest{Amount: 777}}, 30*time.Millisecond)
	if nerr, ok := err.(net.Error); !ok || !nerr.Timeout() {
		t.Fatalf("the unanswered call: want a timeout, got %v", err)
	}
	for lease := 1; lease <= 3; lease++ {
		resp, err := w.do(&Request{Alloc: &AllocRequest{Amount: float64(lease)}}, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Alloc == nil || resp.Alloc.Lease != lease {
			t.Fatalf("allocation %d was answered with %+v: the late reply reached a later call", lease, resp.Alloc)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if ids[1] != ids[0] {
		t.Errorf("ids %v: the call after an answered ping did not reuse its id", ids)
	}
	for _, id := range ids[2:] {
		if id == ids[1] {
			t.Fatalf("ids %v: id %d went back into use after its call timed out", ids, id)
		}
	}
}
