package transport_test

import (
	"bufio"
	"encoding/gob"
	"net"
	"testing"
	"time"

	"repro/internal/grm/transport"
	"repro/internal/wirefmt"
)

// echoCodec is the binary codec for the echoReq/echoResp test envelopes:
// each is a single zigzag integer.
type echoCodec struct{}

func (echoCodec) DecodeRequest(data []byte) (any, error) {
	d := wirefmt.NewDec(data)
	n := int(d.Int())
	if err := d.Done(); err != nil {
		return nil, err
	}
	return &echoReq{N: n}, nil
}

func (echoCodec) AppendResponse(dst []byte, resp any) ([]byte, error) {
	return wirefmt.AppendInt(dst, int64(resp.(*echoResp).N)), nil
}

// slowMark makes the echo handler sleep before answering, so tests can
// force out-of-order completion.
const slowMark = 1_000_000

func startBinaryEcho(t *testing.T, opts transport.Options) (*transport.Server, string) {
	t.Helper()
	opts.Codec = echoCodec{}
	srv := transport.NewServer(
		func() any { return &echoReq{} },
		transport.HandlerFunc(func(req any) any {
			n := req.(*echoReq).N
			if n >= slowMark {
				time.Sleep(200 * time.Millisecond)
			}
			return &echoResp{N: n + 1}
		}),
		opts,
	)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return srv, l.Addr().String()
}

// dialBinary dials and completes the binary handshake, returning the
// framing endpoints.
func dialBinary(t *testing.T, addr string) (net.Conn, *transport.FrameWriter, *transport.FrameReader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := transport.WriteHello(conn, transport.Version); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	v, err := transport.ReadHello(br)
	if err != nil {
		t.Fatal(err)
	}
	if v != transport.Version {
		t.Fatalf("negotiated version %d, want %d", v, transport.Version)
	}
	return conn, transport.NewFrameWriter(conn), transport.NewFrameReader(br)
}

func writeEcho(t *testing.T, fw *transport.FrameWriter, id uint64, n int) {
	t.Helper()
	err := fw.WriteFrame(id, func(dst []byte) ([]byte, error) {
		return wirefmt.AppendInt(dst, int64(n)), nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func readEcho(t *testing.T, fr *transport.FrameReader) (uint64, int) {
	t.Helper()
	id, envelope, err := fr.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	d := wirefmt.NewDec(envelope)
	n := int(d.Int())
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	return id, n
}

// TestBinaryPipelining floods one connection with many tagged requests
// before reading anything back; every reply must carry its request's id
// and value.
func TestBinaryPipelining(t *testing.T) {
	_, addr := startBinaryEcho(t, transport.Options{})
	_, fw, fr := dialBinary(t, addr)
	const total = 100
	for i := 1; i <= total; i++ {
		writeEcho(t, fw, uint64(i), i*3)
	}
	got := map[uint64]int{}
	for i := 0; i < total; i++ {
		id, n := readEcho(t, fr)
		got[id] = n
	}
	for i := 1; i <= total; i++ {
		if got[uint64(i)] != i*3+1 {
			t.Fatalf("reply %d = %d, want %d", i, got[uint64(i)], i*3+1)
		}
	}
}

// TestBinaryOutOfOrderReplies proves replies return in completion order,
// not arrival order: a slow request issued first must not block a fast
// one issued after it.
func TestBinaryOutOfOrderReplies(t *testing.T) {
	_, addr := startBinaryEcho(t, transport.Options{})
	_, fw, fr := dialBinary(t, addr)
	writeEcho(t, fw, 1, slowMark) // handler sleeps 200ms
	writeEcho(t, fw, 2, 5)
	id, n := readEcho(t, fr)
	if id != 2 || n != 6 {
		t.Fatalf("first reply = frame %d value %d, want the fast frame 2 value 6", id, n)
	}
	id, n = readEcho(t, fr)
	if id != 1 || n != slowMark+1 {
		t.Fatalf("second reply = frame %d value %d, want the slow frame 1", id, n)
	}
}

// TestBinaryHelloWithoutCodec: a server with no codec must drop a binary
// hello instead of feeding it to the gob decoder.
func TestBinaryHelloWithoutCodec(t *testing.T) {
	_, addr := startEcho(t, transport.Options{}) // no Codec
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := transport.WriteHello(conn, transport.Version); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Error("server answered a binary hello it cannot speak")
	}
}

// TestGobStreamStillServedWithCodec: with the binary codec configured,
// a plain gob peer (no hello) is still served on the same listener.
func TestGobStreamStillServedWithCodec(t *testing.T) {
	_, addr := startBinaryEcho(t, transport.Options{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	if err := enc.Encode(&echoReq{N: 41}); err != nil {
		t.Fatal(err)
	}
	var resp echoResp
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.N != 42 {
		t.Fatalf("reply %d, want 42", resp.N)
	}
}

// TestSetTimeoutsClearsArmedDeadline is the regression test for the
// deadline-clearing bug: dropping the idle timeout to 0 with SetTimeouts
// must clear a previously armed read deadline on the next loop pass, not
// leave it ticking under a live connection.
func TestSetTimeoutsClearsArmedDeadline(t *testing.T) {
	exchangers := map[string]func(t *testing.T, addr string) func() error{
		"gob": func(t *testing.T, addr string) func() error {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { conn.Close() })
			enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
			return func() error {
				if err := enc.Encode(&echoReq{N: 1}); err != nil {
					return err
				}
				var resp echoResp
				return dec.Decode(&resp)
			}
		},
		"binary": func(t *testing.T, addr string) func() error {
			_, fw, fr := dialBinary(t, addr)
			var id uint64
			return func() error {
				id++
				if err := fw.WriteFrame(id, func(dst []byte) ([]byte, error) {
					return wirefmt.AppendInt(dst, 1), nil
				}); err != nil {
					return err
				}
				_, _, err := fr.ReadFrame()
				return err
			}
		},
	}
	for name, mk := range exchangers {
		t.Run(name, func(t *testing.T) {
			srv, addr := startBinaryEcho(t, transport.Options{IdleTimeout: 100 * time.Millisecond})
			exchange := mk(t, addr)
			if err := exchange(); err != nil {
				t.Fatal(err)
			}
			srv.SetTimeouts(0, 0)
			// This exchange runs within the old 100ms window; serving it
			// makes the loop re-read the timeouts and clear the armed
			// deadline.
			if err := exchange(); err != nil {
				t.Fatal(err)
			}
			// Outlive the old deadline. Without the clear, the stale
			// deadline fires during this quiet period and kills the
			// connection.
			time.Sleep(250 * time.Millisecond)
			if err := exchange(); err != nil {
				t.Fatalf("connection died after idle timeout was disabled: %v", err)
			}
		})
	}
}

// TestSetTimeoutsArmsDeadlineOnLiveConn covers the opposite transition:
// enabling an idle timeout on a server that had none must start dropping
// quiet connections from the next request on.
func TestSetTimeoutsArmsDeadlineOnLiveConn(t *testing.T) {
	srv, addr := startEcho(t, transport.Options{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	var resp echoResp
	if err := enc.Encode(&echoReq{}); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	srv.SetTimeouts(40*time.Millisecond, 0)
	// One more exchange so the loop re-arms with the new idle timeout.
	if err := enc.Encode(&echoReq{}); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	// Now go quiet: the server must hang up on its own.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if err := dec.Decode(&resp); err == nil {
		t.Error("quiet connection survived a newly enabled idle timeout")
	}
}

// TestOlderBinaryVersionRefused: a client proposing a version this
// package no longer writes gets no accept — the server hangs up, which
// the client sees as a failed handshake read.
func TestOlderBinaryVersionRefused(t *testing.T) {
	_, addr := startBinaryEcho(t, transport.Options{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := transport.WriteHello(conn, transport.Version-1); err != nil {
		t.Fatal(err)
	}
	if v, err := transport.ReadHello(bufio.NewReader(conn)); err == nil {
		t.Fatalf("version %d hello was accepted as version %d", transport.Version-1, v)
	}
}
