package transport_test

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/grm/transport"
)

// echoReq/echoResp are a minimal envelope pair standing in for the GRM
// protocol types.
type echoReq struct {
	N int
}

type echoResp struct {
	N int
}

// slowMark makes the echo handler sleep before answering, so tests can
// force out-of-order completion.
const slowMark = 1_000_000

// serveEcho starts an echo server with exactly the given options (no
// codec unless the caller set one).
func serveEcho(t *testing.T, opts transport.Options) (*transport.Server, string) {
	t.Helper()
	srv := transport.NewServer(nil,
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

// startEcho is serveEcho speaking echoCodec.
func startEcho(t *testing.T, opts transport.Options) (*transport.Server, string) {
	t.Helper()
	opts.Codec = echoCodec{}
	return serveEcho(t, opts)
}

func TestRequestResponseLoop(t *testing.T) {
	_, addr := startEcho(t, transport.Options{})
	_, fw, fr := dialBinary(t, addr)
	for i := 0; i < 5; i++ {
		writeEcho(t, fw, uint64(i+1), i)
		if id, n := readEcho(t, fr); id != uint64(i+1) || n != i+1 {
			t.Fatalf("reply frame %d value %d, want frame %d value %d", id, n, i+1, i+1)
		}
	}
}

func TestCloseUnblocksServeAndSeversConns(t *testing.T) {
	srv := transport.NewServer(nil,
		transport.HandlerFunc(func(req any) any { return &echoResp{} }),
		transport.Options{Codec: echoCodec{}},
	)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	// One exchange proves the connection is registered with the server.
	conn, fw, fr := dialBinary(t, l.Addr().String())
	writeEcho(t, fw, 1, 0)
	readEcho(t, fr)

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != net.ErrClosed {
			t.Errorf("Serve returned %v, want net.ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	// The live connection must have been severed.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := fr.ReadFrame(); err == nil {
		t.Error("connection still alive after Close")
	}
	// Close is idempotent.
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestIdleTimeoutDropsQuietConn(t *testing.T) {
	srv, addr := startEcho(t, transport.Options{IdleTimeout: 30 * time.Millisecond})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Say nothing; the server must hang up on its own.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Error("idle connection not dropped")
	}
	_ = srv
}

func TestAddrBeforeAndAfterServe(t *testing.T) {
	srv := transport.NewServer(nil,
		transport.HandlerFunc(func(req any) any { return &echoResp{} }),
		transport.Options{},
	)
	if srv.Addr() != nil {
		t.Error("Addr non-nil before Serve")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	deadline := time.Now().Add(2 * time.Second)
	for srv.Addr() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.Addr() == nil || !strings.HasPrefix(srv.Addr().String(), "127.0.0.1:") {
		t.Errorf("Addr = %v, want the listener address", srv.Addr())
	}
}
