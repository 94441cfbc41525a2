// Package transport owns the GRM's connection plane: accepting LRM
// connections, tracking them for shutdown, framing requests and
// responses, and applying idle/write deadlines. It is the bottom layer
// of the GRM's three-layer split (transport → service → state): the
// service layer above it sees only decoded request values and never
// touches a net.Conn, which is what lets it hold its state mutex
// without ever blocking on the network (the invariant the sharingvet
// lockedio analyzer enforces).
//
// One protocol is served (wire.go documents the format): a peer opens
// with the version-2 hello, then exchanges CRC-framed envelopes tagged
// with request ids and may pipeline: the connection's reader dispatches
// each decoded request to its own handler goroutine and a single writer
// goroutine serializes the replies, so responses return in completion
// order, not arrival order. A connection whose first byte is not the
// hello magic (a legacy gob peer, or garbage) is logged and closed.
//
// The package is protocol-agnostic: the request/response envelope types
// are supplied by the caller through a Handler and a Codec, so the
// transport has no dependency on the grm package above it.
package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"
)

// Handler processes one decoded request envelope and returns the
// response envelope to write back. Implementations must be safe for
// concurrent use: every live connection drives the handler from its own
// goroutine.
type Handler interface {
	Handle(req any) (resp any)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(req any) any

// Handle calls f.
func (f HandlerFunc) Handle(req any) any { return f(req) }

// Options configures a transport server. Both deadlines may later be
// changed at runtime with SetTimeouts.
type Options struct {
	// IdleTimeout is the maximum quiet time between requests on a
	// connection; the connection is dropped when it elapses. 0 = none.
	IdleTimeout time.Duration
	// WriteTimeout bounds each response write. 0 = none.
	WriteTimeout time.Duration
	// Logger receives per-connection diagnostics; nil discards them.
	Logger *log.Logger
	// Codec translates frame payloads to and from envelopes. nil serves
	// nobody: every hello is logged and hung up on.
	Codec Codec
	// MaxInflight caps concurrently executing requests per connection;
	// further frames wait in the kernel buffer. 0 uses
	// DefaultMaxInflight.
	MaxInflight int
}

// DefaultMaxInflight is the per-connection pipelining cap when Options
// does not set one.
const DefaultMaxInflight = 64

// Server is the connection plane: one accept loop plus one reader and
// one writer goroutine per live connection. It owns every net.Conn it
// accepts; the layers above never see one.
type Server struct {
	handler  Handler
	codec    Codec
	inflight int
	logger   *log.Logger

	mu       sync.Mutex
	idle     time.Duration
	write    time.Duration
	listener net.Listener
	conns    map[net.Conn]struct{}

	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// NewServer builds a transport server; handler serves each decoded
// request. The unnamed parameter is a compile shim for frozen bench/ (ROADMAP item 1f).
func NewServer(_ func() any, handler Handler, opts Options) *Server {
	logger := opts.Logger
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	inflight := opts.MaxInflight
	if inflight <= 0 {
		inflight = DefaultMaxInflight
	}
	return &Server{
		handler:  handler,
		codec:    opts.Codec,
		inflight: inflight,
		logger:   logger,
		idle:     opts.IdleTimeout,
		write:    opts.WriteTimeout,
		conns:    map[net.Conn]struct{}{},
		closed:   make(chan struct{}),
	}
}

// SetTimeouts changes the idle and write deadlines applied to every
// connection from the next request on.
func (t *Server) SetTimeouts(idle, write time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.idle, t.write = idle, write
}

// Addr returns the listener address, or nil before Serve.
func (t *Server) Addr() net.Addr {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.listener == nil {
		return nil
	}
	return t.listener.Addr()
}

// Serve accepts connections on l until Close. It always returns a
// non-nil error (net.ErrClosed after a clean shutdown).
func (t *Server) Serve(l net.Listener) error {
	t.mu.Lock()
	t.listener = l
	t.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-t.closed:
				return net.ErrClosed
			default:
				return fmt.Errorf("transport: accept: %w", err)
			}
		}
		t.mu.Lock()
		select {
		case <-t.closed:
			// Raced with Close after it snapshotted live connections:
			// drop the straggler rather than leak a handler past Close.
			t.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		default:
		}
		t.conns[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.serveConn(conn)
			t.mu.Lock()
			delete(t.conns, conn)
			t.mu.Unlock()
		}()
	}
}

// Close stops the accept loop, severs live connections, and waits for
// in-flight connection goroutines. Safe to call more than once; repeated
// calls return the first call's error.
func (t *Server) Close() error {
	t.closeOnce.Do(func() {
		close(t.closed)
		t.mu.Lock()
		l := t.listener
		conns := make([]net.Conn, 0, len(t.conns))
		for c := range t.conns {
			conns = append(conns, c)
		}
		t.mu.Unlock()
		if l != nil {
			t.closeErr = l.Close()
		}
		for _, c := range conns {
			c.Close()
		}
		t.wg.Wait()
	})
	return t.closeErr
}

// timeouts snapshots the current idle/write deadlines.
func (t *Server) timeouts() (idle, write time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.idle, t.write
}

// serveConn admits one accepted connection: its first byte must open the
// version-2 hello (wire.go), anything else is refused by hanging up. The
// peek runs under the idle deadline so a silent peer is still dropped.
func (t *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	idle, _ := t.timeouts()
	if idle > 0 {
		conn.SetReadDeadline(time.Now().Add(idle))
	}
	br := bufio.NewReader(conn)
	first, err := br.Peek(1)
	if err != nil {
		if !errors.Is(err, io.EOF) {
			t.logger.Printf("transport: peek from %s: %v", conn.RemoteAddr(), err)
		}
		return
	}
	if !IsBinaryHello(first[0]) {
		t.logger.Printf("transport: %s is not speaking protocol v%d (legacy gob peer or garbage)", conn.RemoteAddr(), Version)
		return
	}
	if t.codec == nil {
		t.logger.Printf("transport: binary hello from %s but no codec configured", conn.RemoteAddr())
		return
	}
	t.serveBinary(conn, br)
}

// respFrame is one finished response on its way to its connection's
// writer goroutine.
type respFrame struct {
	id   uint64
	resp any
}

// serveBinary answers the handshake then runs the pipelined loop: this
// goroutine reads and decodes frames, each request executes in its own
// goroutine (bounded by the inflight cap), and the writer goroutine
// serializes replies back onto the wire in completion order.
func (t *Server) serveBinary(conn net.Conn, br *bufio.Reader) {
	idle, write := t.timeouts()
	if idle > 0 {
		conn.SetReadDeadline(time.Now().Add(idle))
	}
	proposed, err := ReadHello(br)
	if err != nil {
		t.logger.Printf("transport: handshake from %s: %v", conn.RemoteAddr(), err)
		return
	}
	version, ok := NegotiateVersion(proposed)
	if !ok {
		// Hanging up is the refusal: the peer's handshake read fails.
		t.logger.Printf("transport: handshake from %s: protocol version %d is no longer spoken (want %d)", conn.RemoteAddr(), proposed, Version)
		return
	}
	if write > 0 {
		conn.SetWriteDeadline(time.Now().Add(write))
	}
	if err := WriteHello(conn, version); err != nil {
		t.logger.Printf("transport: handshake to %s: %v", conn.RemoteAddr(), err)
		return
	}

	writes := make(chan respFrame, t.inflight)
	writerDone := make(chan struct{})
	go t.connWriter(conn, writes, writerDone)
	sem := make(chan struct{}, t.inflight)
	var handlers sync.WaitGroup

	fr := NewFrameReader(br)
	for {
		idle, _ := t.timeouts()
		if idle > 0 {
			conn.SetReadDeadline(time.Now().Add(idle))
		} else {
			conn.SetReadDeadline(time.Time{})
		}
		id, envelope, err := fr.ReadFrame()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				t.logger.Printf("transport: read frame from %s: %v", conn.RemoteAddr(), err)
			}
			break
		}
		req, err := t.codec.DecodeRequest(envelope)
		if err != nil {
			t.logger.Printf("transport: decode frame %d from %s: %v", id, conn.RemoteAddr(), err)
			break
		}
		sem <- struct{}{}
		handlers.Add(1)
		go func(id uint64, req any) {
			defer handlers.Done()
			defer func() { <-sem }()
			// The writer drains until the channel closes (below, after
			// every handler finished), so this send cannot deadlock even
			// when the connection is already dead.
			writes <- respFrame{id: id, resp: t.handler.Handle(req)}
		}(id, req)
	}
	handlers.Wait()
	close(writes)
	<-writerDone
}

// connWriter is a connection's single writer: it frames each
// finished response under the write deadline. Replies are batched
// through a buffered writer that flushes only when the queue runs dry,
// so a pipelined burst of responses costs one syscall, not one per
// frame. On a write error it severs the connection (unblocking the
// reader) and keeps draining so handler goroutines never block on a
// dead peer.
func (t *Server) connWriter(conn net.Conn, writes <-chan respFrame, done chan<- struct{}) {
	defer close(done)
	bw := bufio.NewWriter(conn)
	fw := NewFrameWriter(bw)
	broken := false
	for f := range writes {
		if broken {
			continue
		}
		_, write := t.timeouts()
		if write > 0 {
			conn.SetWriteDeadline(time.Now().Add(write))
		} else {
			conn.SetWriteDeadline(time.Time{})
		}
		err := fw.WriteFrame(f.id, func(dst []byte) ([]byte, error) {
			return t.codec.AppendResponse(dst, f.resp)
		})
		if err == nil && len(writes) == 0 {
			err = bw.Flush()
		}
		if err != nil {
			t.logger.Printf("transport: write frame to %s: %v", conn.RemoteAddr(), err)
			conn.Close()
			broken = true
		}
	}
}
