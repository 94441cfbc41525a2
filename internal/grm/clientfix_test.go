package grm

import (
	"bufio"
	"encoding/gob"
	"math"
	"net"
	"reflect"
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

// TestCodecSelection checks each explicit codec works against the real
// server and that auto negotiation lands on binary.
func TestCodecSelection(t *testing.T) {
	_, addr := startServer(t, core.Config{})
	for _, tc := range []struct {
		codec WireCodec
		want  WireCodec
	}{
		{CodecAuto, CodecBinary},
		{CodecBinary, CodecBinary},
		{CodecGob, CodecGob},
	} {
		cfg := DefaultDialConfig()
		cfg.Codec = tc.codec
		l, err := DialWithConfig(addr, "c-"+tc.codec.String(), 10, cfg)
		if err != nil {
			t.Fatalf("%v: %v", tc.codec, err)
		}
		if err := l.Ping(); err != nil {
			t.Errorf("%v: ping: %v", tc.codec, err)
		}
		if got := l.Codec(); got != tc.want {
			t.Errorf("%v negotiated %v, want %v", tc.codec, got, tc.want)
		}
		l.Close()
	}
}

// TestAutoFallsBackToGobOnlyServer dials a server that predates the
// binary protocol (it feeds every byte to a gob decoder): auto
// negotiation must settle on gob and work, while CodecBinary must fail.
func TestAutoFallsBackToGobOnlyServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				dec, enc := gob.NewDecoder(c), gob.NewEncoder(c)
				for {
					var req Request
					if err := dec.Decode(&req); err != nil {
						return // a binary hello lands here: garbage to gob
					}
					resp := &Response{}
					switch {
					case req.Register != nil:
						resp.Register = &RegisterReply{Principal: 0}
					case req.Report != nil:
						resp.Report = &ReportReply{}
					case req.Ping != nil:
						resp.Ping = &PingReply{}
					default:
						resp.Err = "unsupported"
					}
					if err := enc.Encode(resp); err != nil {
						return
					}
				}
			}(c)
		}
	}()

	cfg := DefaultDialConfig()
	cfg.RetryMax = 1
	l, err := DialWithConfig(ln.Addr().String(), "old", 10, cfg)
	if err != nil {
		t.Fatalf("auto against gob-only server: %v", err)
	}
	defer l.Close()
	if got := l.Codec(); got != CodecGob {
		t.Errorf("negotiated %v, want gob fallback", got)
	}
	if err := l.Ping(); err != nil {
		t.Errorf("ping over fallback: %v", err)
	}

	cfg.Codec = CodecBinary
	if _, err := DialWithConfig(ln.Addr().String(), "strict", 10, cfg); err == nil {
		t.Error("CodecBinary connected to a gob-only server")
	}
}

// TestAutoFallsBackFromOlderBinaryServer dials a server one protocol
// version behind: it answers the hello by settling on its own version,
// whose allocation replies this client would misread. The handshake must
// fail on that answer, auto negotiation must fall back to gob (which the
// old server also speaks), and CodecBinary must refuse to connect.
func TestAutoFallsBackFromOlderBinaryServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				br := bufio.NewReader(c)
				if first, err := br.Peek(1); err == nil && transport.IsBinaryHello(first[0]) {
					if _, err := transport.ReadHello(br); err == nil {
						transport.WriteHello(c, transport.Version-1)
					}
					return
				}
				dec, enc := gob.NewDecoder(br), gob.NewEncoder(c)
				for {
					var req Request
					if err := dec.Decode(&req); err != nil {
						return
					}
					resp := &Response{}
					switch {
					case req.Register != nil:
						resp.Register = &RegisterReply{Principal: 0}
					case req.Alloc != nil:
						// The old server's reply: takes indexed by principal.
						resp.Alloc = &AllocReply{Takes: []float64{0, 2, 0, 3}, Lease: 1}
					default:
						resp.Err = "unsupported"
					}
					if err := enc.Encode(resp); err != nil {
						return
					}
				}
			}(c)
		}
	}()

	cfg := DefaultDialConfig()
	cfg.RetryMax = 1
	l, err := DialWithConfig(ln.Addr().String(), "new", 10, cfg)
	if err != nil {
		t.Fatalf("auto against a version-%d server: %v", transport.Version-1, err)
	}
	defer l.Close()
	if got := l.Codec(); got != CodecGob {
		t.Errorf("negotiated %v, want gob fallback", got)
	}
	// The dense reply of the old server reads through the same helpers.
	reply, err := l.Allocate(5)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Sources != nil {
		t.Fatalf("gob carried sources %v from a server that has none", reply.Sources)
	}
	var from []int
	reply.Each(func(p int, take float64) { from = append(from, p) })
	if !reflect.DeepEqual(from, []int{1, 3}) || !reflect.DeepEqual(reply.Dense(4), []float64{0, 2, 0, 3}) {
		t.Errorf("dense reply read as sources %v, vector %v", from, reply.Dense(4))
	}

	cfg.Codec = CodecBinary
	if _, err := DialWithConfig(ln.Addr().String(), "strict", 10, cfg); err == nil || !strings.Contains(err.Error(), "protocol version") {
		t.Errorf("CodecBinary against a version-%d server: err = %v, want a version refusal", transport.Version-1, err)
	}
}

// TestPipelinedClientSharesOneConnection runs many concurrent operations
// on one binary LRM: they must all succeed over a single dialed
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
