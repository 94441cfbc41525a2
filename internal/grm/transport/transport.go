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
// with the hello of protocol version 4 (Version), then exchanges CRC-framed envelopes tagged
// with request ids and may pipeline: the connection's reader hands each
// decoded request to one of the connection's handler workers and a single
// writer goroutine serializes the replies, so responses return in
// completion order, not arrival order. A connection whose first byte is
// not the hello magic (a legacy gob peer, or garbage) is logged and
// closed.
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
	"sync/atomic"
	"time"
)

// Handler processes one decoded request envelope and returns the
// response envelope to write back. Implementations must be safe for
// concurrent use: every live connection drives the handler from up to
// MaxInflight worker goroutines.
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
	// MaxInflight caps concurrently executing requests per connection,
	// and so the connection's handler workers; further frames wait in the
	// kernel buffer. 0 uses DefaultMaxInflight.
	MaxInflight int
}

// DefaultMaxInflight is the per-connection pipelining cap when Options
// does not set one.
const DefaultMaxInflight = 64

// Server is the connection plane: one accept loop plus, per live
// connection, one reader, one writer and up to MaxInflight handler
// workers. It owns every net.Conn it accepts; the layers above never see
// one.
type Server struct {
	handler  Handler
	codec    Codec
	inflight int
	logger   *log.Logger
	// idle and write are the deadlines, in nanoseconds, every frame read
	// and written arms; atomics, so no frame takes mu.
	idle, write atomic.Int64

	mu       sync.Mutex
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
	t := &Server{
		handler:  handler,
		codec:    opts.Codec,
		inflight: inflight,
		logger:   logger,
		conns:    map[net.Conn]struct{}{},
		closed:   make(chan struct{}),
	}
	t.SetTimeouts(opts.IdleTimeout, opts.WriteTimeout)
	return t
}

// SetTimeouts changes the idle and write deadlines applied to every
// connection from the next request on.
func (t *Server) SetTimeouts(idle, write time.Duration) {
	t.idle.Store(int64(idle))
	t.write.Store(int64(write))
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
// non-nil error (net.ErrClosed after a clean shutdown). A Serve called
// after Close closes l and returns net.ErrClosed at once: Close found no
// listener to close, so nothing else would.
func (t *Server) Serve(l net.Listener) error {
	t.mu.Lock()
	select {
	case <-t.closed:
		t.mu.Unlock()
		l.Close()
		return net.ErrClosed
	default:
	}
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
			// drop the straggler rather than leak a handler past Close,
			// and the listener with it.
			t.mu.Unlock()
			conn.Close()
			l.Close()
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

// deadline is what a timeout of d nanoseconds arms from now: the zero
// time, which clears an armed deadline, when d is 0.
func deadline(d *atomic.Int64) time.Time {
	if d := d.Load(); d > 0 {
		return time.Now().Add(time.Duration(d))
	}
	return time.Time{}
}

// serveConn admits one accepted connection: its first byte must open the
// hello (wire.go), anything else is refused by hanging up. The
// peek runs under the idle deadline so a silent peer is still dropped.
func (t *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	conn.SetReadDeadline(deadline(&t.idle))
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

// frame is one request on its way from its connection's reader to a
// handler worker and then, msg replaced by the response, to the writer.
type frame struct {
	id  uint64
	msg any
}

// serveBinary answers the handshake then runs the pipelined loop: this
// goroutine reads and decodes frames and hands each to an idle handler
// worker, starting one while fewer than the inflight cap exist, and the
// writer goroutine serializes replies back onto the wire in completion
// order. The reader takes a slot before it reads a frame and a worker
// frees it once the reply is queued, so with every slot taken the next
// frame waits in the kernel buffer.
func (t *Server) serveBinary(conn net.Conn, br *bufio.Reader) {
	conn.SetReadDeadline(deadline(&t.idle))
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
	conn.SetWriteDeadline(deadline(&t.write))
	if err := WriteHello(conn, version); err != nil {
		t.logger.Printf("transport: handshake to %s: %v", conn.RemoteAddr(), err)
		return
	}

	writes := make(chan frame, t.inflight)
	writerDone := make(chan struct{})
	go t.connWriter(conn, writes, writerDone)
	slots := make(chan struct{}, t.inflight)
	work := make(chan frame)
	var workers sync.WaitGroup
	started := 0

	fr := NewFrameReader(br)
	for {
		slots <- struct{}{}
		conn.SetReadDeadline(deadline(&t.idle))
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
		f := frame{id: id, msg: req}
		select {
		case work <- f:
		default:
			if started < t.inflight {
				started++
				workers.Add(1)
				go t.handle(f, work, writes, slots, &workers)
			} else {
				// A slot is free, so a worker is on its way back to work.
				work <- f
			}
		}
	}
	close(work)
	workers.Wait()
	close(writes)
	<-writerDone
}

// handle is one of a connection's handler workers: it serves f, then
// every frame the reader hands it, until the reader closes work.
func (t *Server) handle(f frame, work <-chan frame, writes chan<- frame, slots <-chan struct{}, done *sync.WaitGroup) {
	defer done.Done()
	for {
		f.msg = t.handler.Handle(f.msg)
		// The writer drains until the channel closes (after every worker
		// finished), so this send cannot deadlock even when the connection
		// is already dead.
		writes <- f
		<-slots
		var ok bool
		if f, ok = <-work; !ok {
			return
		}
	}
}

// connWriter is a connection's single writer: it frames each
// finished response under the write deadline. Replies are batched
// through a buffered writer that flushes only when the queue runs dry,
// so a pipelined burst of responses costs one syscall, not one per
// frame. On a write error it severs the connection (unblocking the
// reader) and keeps draining so handler workers never block on a
// dead peer.
func (t *Server) connWriter(conn net.Conn, writes <-chan frame, done chan<- struct{}) {
	defer close(done)
	bw := bufio.NewWriter(conn)
	fw := NewFrameWriter(bw)
	broken := false
	for f := range writes {
		if broken {
			continue
		}
		conn.SetWriteDeadline(deadline(&t.write))
		err := fw.WriteFrame(f.id, func(dst []byte) ([]byte, error) {
			return t.codec.AppendResponse(dst, f.msg)
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
