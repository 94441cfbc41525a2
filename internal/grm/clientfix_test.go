package grm

import (
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
// protocol v2.
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

// TestDialPreV2PeerSaysWhy dials peers that predate protocol v2: one that
// hangs up on the hello (what a gob decoder does with it), one that
// answers with bytes that are not the magic, one that settles on version
// 1. Each costs exactly one connection, and the error tells an operator
// which address failed to speak which protocol.
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
			answer: func(c net.Conn) { transport.WriteHello(c, transport.Version-1) },
			check:  func(err error) bool { return strings.Contains(err.Error(), "protocol version 1") },
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
				t.Fatal("connected to a peer that does not speak protocol v2")
			}
			if !tc.check(err) {
				t.Errorf("err = %v: the cause is lost", err)
			}
			if msg := err.Error(); !strings.Contains(msg, addr) || !strings.Contains(msg, "binary protocol v2") {
				t.Errorf("err = %q, want it to name %s and binary protocol v2", msg, addr)
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
