package transport_test

import (
	"bufio"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/grm/transport"
	"repro/internal/wirefmt"
)

// echoCodec is the codec for the echoReq/echoResp test envelopes:
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
	_, addr := startEcho(t, transport.Options{})
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
	_, addr := startEcho(t, transport.Options{})
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

// TestBinaryHelloWithoutCodec: a server with no codec has nothing to
// decode frames with and must hang up on a hello rather than accept it.
func TestBinaryHelloWithoutCodec(t *testing.T) {
	_, addr := serveEcho(t, transport.Options{}) // no Codec
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

// logBuffer collects a server's log lines from its connection goroutines.
type logBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// expectHangUp sends opener on a fresh connection and requires the server
// to close it without writing a single byte back.
func expectHangUp(t *testing.T, addr string, opener []byte) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(opener); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.Read(make([]byte, 16)); n != 0 || err != io.EOF {
		t.Fatalf("opener %x: read %d bytes, err %v; want a bare hang-up", opener, n, err)
	}
	return conn
}

// TestNonHelloOpenerRefused: a peer that opens with anything but the v2
// hello — the gob stream this listener used to serve, or a v1 hello — is
// closed without a reply, the refusal says why and to whom, and the
// server keeps serving.
func TestNonHelloOpenerRefused(t *testing.T) {
	var logs logBuffer
	_, addr := startEcho(t, transport.Options{Logger: log.New(&logs, "", 0)})

	// What gob.NewEncoder(conn).Encode(&echoReq{}) opens with: a positive
	// message-length uvarint, then type descriptors.
	gobish := expectHangUp(t, addr, []byte{0x1f, 0xff, 0x81, 0x03, 0x01, 0x01, 0x07, 'e', 'c', 'h', 'o', 'R', 'e', 'q'})
	if want := gobish.LocalAddr().String() + " is not speaking protocol v2 (legacy gob peer or garbage)"; !strings.Contains(logs.String(), want) {
		t.Errorf("log %q does not name the refusal %q", logs.String(), want)
	}
	expectHangUp(t, addr, []byte{0x00, 'G', 'R', 'M', transport.Version - 1})
	if !strings.Contains(logs.String(), "protocol version 1 is no longer spoken") {
		t.Errorf("log %q does not name the v1 refusal", logs.String())
	}

	_, fw, fr := dialBinary(t, addr)
	writeEcho(t, fw, 1, 41)
	if id, n := readEcho(t, fr); id != 1 || n != 42 {
		t.Fatalf("after the refusals: reply frame %d value %d, want frame 1 value 42", id, n)
	}
}

// TestSetTimeoutsClearsArmedDeadline is the regression test for the
// deadline-clearing bug: dropping a timeout to 0 with SetTimeouts must
// clear the previously armed deadline on the next loop pass — the
// reader's idle deadline, the writer's write deadline — not leave it
// ticking under a live connection.
func TestSetTimeoutsClearsArmedDeadline(t *testing.T) {
	for name, opts := range map[string]transport.Options{
		"idle":  {IdleTimeout: 100 * time.Millisecond},
		"write": {WriteTimeout: 100 * time.Millisecond},
	} {
		t.Run(name, func(t *testing.T) {
			srv, addr := startEcho(t, opts)
			_, fw, fr := dialBinary(t, addr)
			var id uint64
			exchange := func() error {
				id++
				if err := fw.WriteFrame(id, func(dst []byte) ([]byte, error) {
					return wirefmt.AppendInt(dst, 1), nil
				}); err != nil {
					return err
				}
				_, _, err := fr.ReadFrame()
				return err
			}
			if err := exchange(); err != nil {
				t.Fatal(err)
			}
			srv.SetTimeouts(0, 0)
			// This exchange runs within the old 100ms window; serving it
			// makes the loops re-read the timeouts and clear the armed
			// deadline.
			if err := exchange(); err != nil {
				t.Fatal(err)
			}
			// Outlive the old deadline. Without the clear, the stale
			// deadline fires during this quiet period (idle) or fails the
			// next reply (write) and kills the connection.
			time.Sleep(250 * time.Millisecond)
			if err := exchange(); err != nil {
				t.Fatalf("connection died after the timeout was disabled: %v", err)
			}
		})
	}
}

// TestSetTimeoutsArmsDeadlineOnLiveConn covers the opposite transition:
// enabling an idle timeout on a server that had none must start dropping
// quiet connections from the next request on.
func TestSetTimeoutsArmsDeadlineOnLiveConn(t *testing.T) {
	srv, addr := startEcho(t, transport.Options{})
	conn, fw, fr := dialBinary(t, addr)
	writeEcho(t, fw, 1, 0)
	readEcho(t, fr)
	srv.SetTimeouts(40*time.Millisecond, 0)
	// One more exchange so the loop re-arms with the new idle timeout.
	writeEcho(t, fw, 2, 0)
	readEcho(t, fr)
	// Now go quiet: the server must hang up on its own.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := fr.ReadFrame(); err == nil {
		t.Error("quiet connection survived a newly enabled idle timeout")
	}
}

// TestOlderBinaryVersionRefused: a client proposing a version this
// package no longer writes gets no accept — the server hangs up, which
// the client sees as a failed handshake read.
func TestOlderBinaryVersionRefused(t *testing.T) {
	_, addr := startEcho(t, transport.Options{})
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
