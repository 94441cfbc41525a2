package grm

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/grm/transport"
)

// WireCodec and CodecBinary are compile shims for frozen bench/; nothing reads them (ROADMAP item 1f).
type WireCodec int

const CodecBinary WireCodec = 0

// DialConfig controls the LRM's failure behavior: per-operation I/O
// deadlines and the reconnect policy applied when the GRM connection dies
// mid-session.
type DialConfig struct {
	// Timeout bounds each request/response exchange (and the dial
	// itself). 0 disables deadlines.
	Timeout time.Duration
	// RetryMax is how many reconnect-and-retry rounds a failed operation
	// attempts before giving up. 0 fails on the first transport error.
	RetryMax int
	// Backoff is the initial delay before a reconnect attempt; it doubles
	// per attempt (with jitter) up to MaxBackoff (or a built-in ceiling
	// when MaxBackoff is 0).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Codec is ignored: a compile shim, see WireCodec.
	Codec WireCodec
	// Dialer overrides how the TCP connection is made — the hook used by
	// fault-injection tests (see internal/grm/faultnet). nil uses
	// net.DialTimeout.
	Dialer func(addr string) (net.Conn, error)
}

// DefaultDialConfig is the policy Dial uses: 10s operation deadlines and
// up to 3 reconnect rounds starting at 50ms backoff.
func DefaultDialConfig() DialConfig {
	return DialConfig{
		Timeout:    10 * time.Second,
		RetryMax:   3,
		Backoff:    50 * time.Millisecond,
		MaxBackoff: 2 * time.Second,
	}
}

// errClosed is what every operation on a closed LRM returns. It is
// matched by identity: a connect attempt can fail with an error that also
// wraps net.ErrClosed (a connection reset under the handshake), and that
// one is retried.
var errClosed = fmt.Errorf("grm: %w", net.ErrClosed)

// backoffCeiling caps the exponential doubling when DialConfig.MaxBackoff
// is 0, so the doubling can never overflow into a negative duration (which
// would silently disable backoff).
const backoffCeiling = time.Minute

// LRM is a Local Resource Manager: the client side of the GRM protocol.
// It registers a principal, reports availability, manages agreements and
// requests allocations. An LRM is safe for concurrent use: concurrent
// operations pipeline on one connection (tagged request ids correlate
// the out-of-order replies).
//
// When the connection to the GRM dies, the next operation transparently
// reconnects under DialConfig's policy: it re-registers under the same
// principal name (the GRM rebinds names to their principal) and replays
// the last availability report before retrying the operation. Operations
// are therefore at-least-once: a reply lost in transit may be re-executed.
type LRM struct {
	cfg      DialConfig
	addr     string
	name     string
	capacity float64

	mu         sync.Mutex
	w          *binWire
	principal  int
	closed     bool
	hasReport  bool
	lastReport float64
}

// Dial connects to a GRM and registers a principal with the given starting
// capacity, using DefaultDialConfig.
func Dial(addr, name string, capacity float64) (*LRM, error) {
	return DialWithConfig(addr, name, capacity, DefaultDialConfig())
}

// DialWithConfig is Dial with an explicit failure policy.
//
//lint:ignore sharingvet/lockedio l.mu intentionally serializes the dial+register exchange; the LRM is unpublished until Dial returns, and no other lock nests under l.mu
func DialWithConfig(addr, name string, capacity float64, cfg DialConfig) (*LRM, error) {
	if cfg.Dialer == nil {
		cfg.Dialer = func(addr string) (net.Conn, error) {
			if cfg.Timeout > 0 {
				return net.DialTimeout("tcp", addr, cfg.Timeout)
			}
			return net.Dial("tcp", addr)
		}
	}
	l := &LRM{cfg: cfg, addr: addr, name: name, capacity: capacity}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.connectLocked(); err != nil {
		return nil, err
	}
	return l, nil
}

// Close tears down the connection; subsequent operations fail without
// reconnecting.
func (l *LRM) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	if l.w == nil {
		return nil
	}
	err := l.w.close()
	l.w = nil
	return err
}

// Principal returns the principal id assigned at registration (rebound on
// every reconnect).
func (l *LRM) Principal() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.principal
}

// Name returns the name used at registration.
func (l *LRM) Name() string { return l.name }

// dialWire makes one connection and shakes hands on it. A peer that
// closes on, ignores or mis-answers the hello is a transport error like
// any other: the reconnect loop retries it and never speaks anything else.
func (l *LRM) dialWire() (*binWire, error) {
	conn, err := l.cfg.Dialer(l.addr)
	if err != nil {
		return nil, fmt.Errorf("grm: dial %s: %w", l.addr, err)
	}
	w, err := newBinWire(conn, l.cfg.Timeout)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("grm: %s did not complete the binary protocol v%d handshake: %w", l.addr, transport.Version, err)
	}
	return w, nil
}

// connectLocked dials the GRM, registers under the LRM's name (rebinding
// to the existing principal on a reconnect), and replays the last
// availability report so the GRM's view survives the outage. Callers hold
// l.mu.
//
//lint:ignore sharingvet/lockedio l.mu intentionally serializes the reconnect dial + register/replay exchange; each step is bounded by cfg.Timeout and no other lock nests under l.mu
func (l *LRM) connectLocked() error {
	w, err := l.dialWire()
	if err != nil {
		return err
	}
	l.w = w
	resp, err := w.do(&Request{Register: &RegisterRequest{Name: l.name, Capacity: l.capacity}}, l.cfg.Timeout)
	if err == nil {
		if err = wireError(resp); err == nil {
			l.principal = resp.Register.Principal
		}
	}
	if err == nil && l.hasReport {
		if resp, err = w.do(&Request{Report: &ReportRequest{Principal: l.principal, Available: l.lastReport}}, l.cfg.Timeout); err == nil {
			err = wireError(resp)
		}
	}
	if err != nil {
		l.dropLocked()
	}
	return err
}

// dropLocked discards a dead connection so the next operation redials.
// Callers hold l.mu.
func (l *LRM) dropLocked() {
	if l.w != nil {
		l.w.close()
		l.w = nil
	}
}

// dropWire discards w if it is still the live connection; a concurrent
// operation may already have replaced it.
func (l *LRM) dropWire(w *binWire) {
	l.mu.Lock()
	if l.w == w {
		l.w = nil
	}
	l.mu.Unlock()
	w.close()
}

// backoff returns the jittered exponential delay before reconnect round
// `attempt` (1-based): Backoff·2^(attempt−1) capped at MaxBackoff (or
// backoffCeiling when MaxBackoff is 0 — the doubling must never overflow),
// then uniformly drawn from [d/2, d) so stampeding LRMs desynchronize.
func (l *LRM) backoff(attempt int) time.Duration {
	d := l.cfg.Backoff
	if d <= 0 {
		d = 50 * time.Millisecond
	}
	ceil := l.cfg.MaxBackoff
	if ceil <= 0 {
		ceil = backoffCeiling
	}
	for i := 1; i < attempt; i++ {
		if d >= ceil {
			break
		}
		d *= 2
	}
	if d > ceil {
		d = ceil
	}
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	return time.Duration(half + rand.Int63n(half))
}

// acquire returns the live wire (dialing one when needed) and the
// principal currently bound to it. Reconnect round `attempt` > 0 sleeps
// the backoff delay before redialing.
//
//lint:ignore sharingvet/lockedio l.mu intentionally serializes reconnection (the dial + register/replay exchange in connectLocked); each step is bounded by cfg.Timeout and no other lock nests under l.mu
func (l *LRM) acquire(attempt int) (*binWire, int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, 0, errClosed
	}
	if l.w == nil {
		if attempt > 0 {
			time.Sleep(l.backoff(attempt))
		}
		if err := l.connectLocked(); err != nil {
			return nil, 0, err
		}
	}
	return l.w, l.principal, nil
}

// noteReport remembers the last successfully delivered availability so a
// reconnect can replay it.
func (l *LRM) noteReport(v float64) {
	l.mu.Lock()
	l.hasReport, l.lastReport = true, v
	l.mu.Unlock()
}

// bindPrincipal stamps the current principal id into the envelope fields
// that name the caller itself.
func bindPrincipal(req *Request, principal int) {
	switch {
	case req.Report != nil:
		req.Report.Principal = principal
	case req.Alloc != nil:
		req.Alloc.Principal = principal
	case req.Share != nil:
		req.Share.From = principal
	}
}

// exchange performs one request/response exchange, reconnecting and
// retrying on transport errors up to RetryMax times. Application-level
// errors (Response.Err) are returned immediately and never retried, and
// so is a success reply whose payload does not answer the request (the
// reader makes it an error reply): on a nil error the reply carries the
// payload of the request's kind. With bind set, the envelope's
// own-principal field is restamped on every attempt so a retry after a
// reconnect that re-registered under a fresh principal id never carries
// the stale one; without it the envelope goes exactly as given (tests
// send envelopes on behalf of other principals that way).
func (l *LRM) exchange(req *Request, bind bool) (Response, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		w, principal, err := l.acquire(attempt)
		if err != nil {
			if err == errClosed {
				return Response{}, err
			}
			lastErr = err
			if attempt >= l.cfg.RetryMax {
				return Response{}, fmt.Errorf("grm: gave up after %d attempts: %w", attempt+1, lastErr)
			}
			continue
		}
		if bind {
			bindPrincipal(req, principal)
		}
		resp, err := w.do(req, l.cfg.Timeout)
		if err != nil {
			l.dropWire(w)
			lastErr = err
			if attempt >= l.cfg.RetryMax {
				return Response{}, lastErr
			}
			continue
		}
		if err := wireError(resp); err != nil {
			return Response{}, err
		}
		if req.Report != nil {
			l.noteReport(req.Report.Available)
		}
		return resp, nil
	}
}

// Report updates the GRM's view of this principal's free capacity. The
// value is remembered and replayed after a reconnect.
func (l *LRM) Report(available float64) error {
	_, err := l.exchange(&Request{Report: &ReportRequest{Available: available}}, true)
	return err
}

// Ping probes the GRM for liveness over the LRM's connection (and, like
// any operation, reconnects if the connection died).
func (l *LRM) Ping() error {
	_, err := l.exchange(&Request{Ping: &PingRequest{}}, false)
	return err
}

// ShareRelative creates a relative sharing agreement: this principal
// shares `fraction` of its fluctuating capacity with principal `to`. The
// returned ticket token can revoke the agreement.
func (l *LRM) ShareRelative(to int, fraction float64) (int, error) {
	return l.share(&ShareRequest{To: to, Fraction: fraction})
}

// ShareAbsolute creates an absolute agreement of a fixed quantity.
func (l *LRM) ShareAbsolute(to int, quantity float64) (int, error) {
	return l.share(&ShareRequest{To: to, Quantity: quantity})
}

// share creates one agreement from this LRM's principal and returns its
// ticket.
func (l *LRM) share(r *ShareRequest) (int, error) {
	resp, err := l.exchange(&Request{Share: r}, true)
	if err != nil {
		return 0, err
	}
	return resp.Share.Ticket, nil
}

// Revoke cancels an agreement created by this or any other LRM.
func (l *LRM) Revoke(ticket int) error {
	_, err := l.exchange(&Request{Revoke: &RevokeRequest{Ticket: ticket}}, false)
	return err
}

// Allocate asks the GRM for `amount` units under the agreements. The
// reply says how much to take from each principal and carries the lease
// token (renew it with Renew when the reply's TTL is non-zero).
func (l *LRM) Allocate(amount float64) (*AllocReply, error) {
	resp, err := l.exchange(&Request{Alloc: &AllocRequest{Amount: amount}}, true)
	return resp.Alloc, err
}

// Release returns an allocation's resources to the GRM's pool using the
// lease token from AllocReply.
func (l *LRM) Release(lease int) error {
	_, err := l.exchange(&Request{Release: &ReleaseRequest{Lease: lease}}, false)
	return err
}

// Renew extends a lease's TTL and returns the renewed time to live (zero
// when the GRM does not expire leases).
func (l *LRM) Renew(lease int) (time.Duration, error) {
	resp, err := l.exchange(&Request{Renew: &RenewRequest{Lease: lease}}, false)
	if err != nil {
		return 0, err
	}
	return resp.Renew.TTL, nil
}

// Capacities returns the GRM's availability view and every principal's
// capacity C_i.
func (l *LRM) Capacities() (available, capacities []float64, err error) {
	resp, err := l.exchange(&Request{Caps: &CapsRequest{}}, false)
	if err != nil {
		return nil, nil, err
	}
	return resp.Caps.Available, resp.Caps.Capacities, nil
}

// Peers lists the registered principal names, indexed by principal id.
func (l *LRM) Peers() ([]string, error) {
	resp, err := l.exchange(&Request{Peers: &PeersRequest{}}, false)
	if err != nil {
		return nil, err
	}
	return resp.Peers.Names, nil
}

// binWire is one live, pipelined connection to the GRM: any number of
// operations may be in flight on it at once. Writers serialize frame
// emission under wmu; a single reader goroutine demultiplexes replies to
// waiters by request id.
//
// Ids are recycled: an id goes back on freeIDs when its reply arrives, so
// they stay as small as the most requests ever in flight at once plus the
// timeouts, and a uvarint id stays one byte. An id that timed out or failed
// to write never returns — its reply may still come, and must find no
// later call.
type binWire struct {
	conn    net.Conn
	timeout time.Duration

	wmu sync.Mutex
	fw  *transport.FrameWriter

	mu      sync.Mutex
	nextID  uint64
	freeIDs []uint64
	pending map[uint64]*binCall // nil once the reader exited
	err     error               // set under mu; final once done is closed

	done chan struct{} // closed when the reader exits
	fr   *transport.FrameReader
}

// wireTimeout is the pipelined client-side timeout: the request was
// written but no reply arrived within the deadline. It implements
// net.Error so callers detect it the way they detect a socket timeout.
type wireTimeout struct{}

func (wireTimeout) Error() string   { return "grm: receive: timeout waiting for reply" }
func (wireTimeout) Timeout() bool   { return true }
func (wireTimeout) Temporary() bool { return true }

// newBinWire performs the binary handshake on a fresh connection and
// starts the reply-demultiplexing reader.
func newBinWire(conn net.Conn, timeout time.Duration) (*binWire, error) {
	if timeout > 0 {
		conn.SetDeadline(time.Now().Add(timeout))
	}
	if err := transport.WriteHello(conn, transport.Version); err != nil {
		return nil, err
	}
	br := bufio.NewReader(conn)
	accepted, err := transport.ReadHello(br)
	if err != nil {
		return nil, err
	}
	if accepted != transport.Version {
		// An older server settles on the version it knows; its allocation
		// replies are laid out differently, so this is not a wire to use.
		return nil, fmt.Errorf("grm: server speaks binary protocol version %d, want %d", accepted, transport.Version)
	}
	conn.SetDeadline(time.Time{})
	w := &binWire{
		conn:    conn,
		timeout: timeout,
		fw:      transport.NewFrameWriter(conn),
		fr:      transport.NewFrameReader(br),
		pending: map[uint64]*binCall{},
		done:    make(chan struct{}),
	}
	go w.readLoop()
	return w, nil
}

// readLoop demultiplexes reply frames to their waiters, decoding each
// into one Response it owns and handing the waiter a copy. A success
// reply whose payload is not of the kind its request asked for becomes an
// error reply. The read deadline is armed only while replies are owed —
// an idle pipelined connection stays open indefinitely.
func (w *binWire) readLoop() {
	var err error
	var resp Response
	for {
		w.mu.Lock()
		waiting := len(w.pending)
		w.mu.Unlock()
		if w.timeout > 0 && waiting > 0 {
			w.conn.SetReadDeadline(time.Now().Add(w.timeout))
		} else {
			w.conn.SetReadDeadline(time.Time{})
		}
		id, envelope, rerr := w.fr.ReadFrame()
		if rerr != nil {
			err = fmt.Errorf("grm: receive: %w", rerr)
			break
		}
		kind, derr := resp.decode(envelope)
		if derr != nil {
			err = fmt.Errorf("grm: receive: %w", derr)
			break
		}
		w.mu.Lock()
		call, ok := w.pending[id]
		if ok { // answered: no second reply can come, so the id is free
			delete(w.pending, id)
			w.freeIDs = append(w.freeIDs, id)
		}
		w.mu.Unlock()
		if !ok {
			continue // a reply for a timed-out id was forgotten
		}
		if resp.Err == "" && kind != call.kind {
			resp = Response{Err: fmt.Sprintf("grm: malformed reply: a kind %d payload answers a kind %d request", kind, call.kind)}
		}
		call.reply <- resp // buffered
	}
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.pending = nil
	w.mu.Unlock()
	close(w.done)
	w.conn.Close()
}

// forget abandons call's pending request id (timed out or failed to
// write). If the reply won the race, the reader has already recycled the
// id, and it may name a later call by now: that call stays pending.
func (w *binWire) forget(id uint64, call *binCall) {
	w.mu.Lock()
	if w.pending[id] == call {
		delete(w.pending, id)
	}
	w.mu.Unlock()
}

// binCall is what one exchange on a binary wire waits on: the kind of the
// request, which a success reply's payload must match, the channel the
// reader delivers the reply through and the timer bounding the wait.
// Records are recycled through binCalls, and only by a call that received
// its reply: the reader took the id out of pending before that one send,
// so nothing can reach the record afterwards. A call that timed out or saw
// the connection die abandons its record — the reader may already hold it,
// and a late reply must land in a record no later call reads.
type binCall struct {
	kind  uint64
	reply chan Response // buffered: the reader never blocks on a waiter that left
	timer *time.Timer   // nil until a call first waits under a deadline; stopped and drained between calls
}

var binCalls = sync.Pool{New: func() any { return &binCall{reply: make(chan Response, 1)} }}

// arm starts the call's timer and returns its channel (nil, which never
// fires, without a timeout).
func (c *binCall) arm(timeout time.Duration) <-chan time.Time {
	if timeout <= 0 {
		return nil
	}
	if c.timer == nil {
		c.timer = time.NewTimer(timeout)
	} else {
		c.timer.Reset(timeout)
	}
	return c.timer.C
}

// recycle returns an answered call's record for reuse, its timer stopped
// with no stale tick left in the channel.
func (c *binCall) recycle() {
	if c.timer != nil && !c.timer.Stop() {
		select {
		case <-c.timer.C:
		default:
		}
	}
	binCalls.Put(c)
}

// do writes one tagged request frame and waits for its reply, however
// many other operations are in flight on the connection.
func (w *binWire) do(req *Request, timeout time.Duration) (Response, error) {
	call := binCalls.Get().(*binCall)
	call.kind = req.kind()
	w.mu.Lock()
	if w.pending == nil {
		err := w.err
		w.mu.Unlock()
		binCalls.Put(call) // never published
		if err == nil {
			err = fmt.Errorf("grm: send: %w", net.ErrClosed)
		}
		return Response{}, err
	}
	var id uint64
	if n := len(w.freeIDs); n > 0 {
		id, w.freeIDs = w.freeIDs[n-1], w.freeIDs[:n-1]
	} else {
		w.nextID++
		id = w.nextID
	}
	w.pending[id] = call
	w.mu.Unlock()

	w.wmu.Lock()
	if timeout > 0 {
		w.conn.SetWriteDeadline(time.Now().Add(timeout))
	} else {
		w.conn.SetWriteDeadline(time.Time{})
	}
	//lint:ignore sharingvet/lockedio wmu exists to serialize frame emission; the write deadline above bounds the hold time
	err := w.fw.WriteFrame(id, func(dst []byte) ([]byte, error) {
		return appendRequest(dst, req)
	})
	w.wmu.Unlock()
	if err != nil {
		w.forget(id, call)
		select {
		case <-w.done: // the reader closed the connection under the write, and its cause is the error
			return Response{}, fmt.Errorf("%w (send: %v)", w.err, err)
		default:
		}
		// A failed or torn write poisons the frame stream; sever the
		// connection so every waiter unblocks and the LRM redials.
		w.conn.Close()
		return Response{}, fmt.Errorf("grm: send: %w", err)
	}

	timeoutC := call.arm(timeout)
	select {
	case resp := <-call.reply:
		call.recycle()
		return resp, nil
	case <-w.done:
		// The reader may have delivered the reply just before exiting.
		select {
		case resp := <-call.reply:
			return resp, nil
		default:
		}
		return Response{}, w.err
	case <-timeoutC:
		w.forget(id, call)
		return Response{}, wireTimeout{}
	}
}

func (w *binWire) close() error {
	w.mu.Lock()
	if w.err == nil {
		w.err = fmt.Errorf("grm: %w", net.ErrClosed)
	}
	w.mu.Unlock()
	return w.conn.Close()
}
