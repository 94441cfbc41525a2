// Command loadgen drives synthetic LRM traffic at a GRM and reports
// throughput and latency percentiles — the measurement harness for the
// wire-speed transport work.
//
// Two driving disciplines:
//
//   - closed loop (-mode closed): -conns LRM connections each keep
//     -depth operations permanently in flight (depth > 1 exercises the
//     wire's pipelining). Throughput is whatever the server sustains.
//   - open loop (-mode open): operations arrive at -rate per second with
//     -arrival poisson or uniform inter-arrival gaps and are served by a
//     pool of -conns connections. Latency includes queueing delay, so an
//     overloaded server shows up as exploding percentiles, not reduced
//     throughput.
//
// A concurrency ramp (-ramp 1,2,4,8) repeats the closed-loop run at each
// connection count. With no -grm address, loadgen spawns an in-process
// GRM on a loopback port; that mode also reports allocations per
// operation (client and server side together, measured via runtime
// MemStats deltas). -rtt injects a simulated network round trip on the
// client side (default 1ms — GRMs federate across clusters, and raw
// loopback hides what pipelining buys).
// -shards N shards the in-process server across N subtrees (the grm
// shard router, one WAL and pipeline per shard) and -principals P
// bulk-registers P principals with sparse agreement blocks before
// driving, so plans run against a populated book.
//
// -json FILE runs the standard suite and writes BENCH_transport.json:
// the closed loop at -depth under -conns and -rtt (mixed, agreement
// churn, sharded plan, a concurrency ramp) plus a message-level codec
// benchmark (the cost of one self-contained exchange — the unit the
// framed transport works in).
//
// Usage:
//
//	loadgen -mode closed -conns 4 -depth 64 -duration 2s
//	loadgen -mode open -rate 5000 -arrival poisson -duration 5s
//	loadgen -ramp 1,2,4,8
//	loadgen -json BENCH_transport.json -duration 2s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/grm"
)

func main() {
	var (
		addr     = flag.String("grm", "", "GRM address; empty spawns an in-process server (enables allocs/op)")
		mode     = flag.String("mode", "closed", "driving discipline: closed or open")
		conns    = flag.Int("conns", 4, "LRM connections")
		depth    = flag.Int("depth", 64, "in-flight operations per connection (closed loop)")
		rate     = flag.Float64("rate", 2000, "target arrivals per second (open loop)")
		arrival  = flag.String("arrival", "poisson", "open-loop inter-arrival distribution: poisson or uniform")
		duration = flag.Duration("duration", 2*time.Second, "measured run length (after warmup)")
		warmup   = flag.Duration("warmup", 300*time.Millisecond, "warmup before measurement")
		op       = flag.String("op", "mixed", "operation mix: ping, report, mixed, or share (agreement churn: share/revoke cycles with periodic allocate+release)")
		rtt      = flag.Duration("rtt", time.Millisecond, "simulated network round-trip time injected on the client side (0 = raw loopback)")
		ramp     = flag.String("ramp", "", "comma-separated connection counts; runs the closed loop at each")
		jsonOut  = flag.String("json", "", "run the standard suite and write this JSON file")
		seed     = flag.Int64("seed", 1, "seed for arrival gaps and the report value stream")
		shards   = flag.Int("shards", 0, "shard the in-process server across this many subtrees (0 = unsharded; ignored with -grm)")
		bulk     = flag.Int("principals", 0, "bulk principals to pre-register on the in-process server, with sparse agreement blocks")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "loadgen ", 0)

	target := *addr
	inProcess := target == ""
	if inProcess {
		srv, listenAddr, err := spawnServer(*shards, *bulk, *seed)
		if err != nil {
			logger.Fatal(err)
		}
		defer srv.Close()
		target = listenAddr
	} else if *shards > 0 || *bulk > 0 {
		logger.Fatal("-shards and -principals shape the in-process server; drop -grm to use them")
	}

	base := runConfig{
		addr: target, inProcess: inProcess, op: *op, seed: *seed,
		duration: *duration, warmup: *warmup, rtt: *rtt,
	}

	if *jsonOut != "" {
		if !inProcess {
			logger.Fatal("-json needs the in-process server (drop -grm) so allocs/op covers both sides")
		}
		if err := runSuite(*jsonOut, base, *conns, *depth, *shards, *bulk, logger); err != nil {
			logger.Fatal(err)
		}
		return
	}

	if *ramp != "" {
		for _, field := range strings.Split(*ramp, ",") {
			c, err := strconv.Atoi(strings.TrimSpace(field))
			if err != nil || c <= 0 {
				logger.Fatalf("bad -ramp entry %q", field)
			}
			res := runClosed(base, c, *depth)
			printResult(res)
		}
		return
	}

	switch *mode {
	case "closed":
		printResult(runClosed(base, *conns, *depth))
	case "open":
		res, err := runOpen(base, *conns, *rate, *arrival)
		if err != nil {
			logger.Fatal(err)
		}
		printResult(res)
	default:
		logger.Fatalf("unknown -mode %q (want closed or open)", *mode)
	}
}

// grmServer is the slice of the in-process server both the plain and the
// sharded GRM satisfy.
type grmServer interface {
	Serve(l net.Listener) error
	Handle(req *grm.Request) *grm.Response
	Close() error
}

// spawnServer starts an in-process GRM on a loopback port: the plain
// single-book server by default, the shard router when shards > 0
// (ComponentLP keeps per-request plans component-sized against a large
// registered population). bulk principals are pre-registered with
// sparse agreement blocks so plans run against a populated book.
func spawnServer(shards, bulk int, seed int64) (grmServer, string, error) {
	logger := log.New(os.Stderr, "loadgen-grm ", 0)
	var srv grmServer
	if shards > 0 {
		srv = grm.NewSharded(shards, core.Config{ComponentLP: true}, logger)
	} else {
		srv = grm.NewServer(core.Config{}, logger)
	}
	if bulk > 0 {
		if err := populate(srv, bulk, seed); err != nil {
			srv.Close()
			return nil, "", err
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, "", err
	}
	go srv.Serve(l)
	return srv, l.Addr().String(), nil
}

// populate bulk-registers principals as subtree names (so a sharded
// server spreads them across its shards) and chains sparse agreement
// blocks of eight between consecutive same-subtree principals — the
// block shape the sparse allocator benches use.
func populate(srv grmServer, bulk int, seed int64) error {
	const blockSize = 8
	rng := rand.New(rand.NewSource(seed))
	var block []int
	for k := 0; k < bulk; k++ {
		resp := srv.Handle(&grm.Request{Register: &grm.RegisterRequest{
			Name:     fmt.Sprintf("b%d/p%d", k/blockSize, k),
			Capacity: 1 + rng.Float64()*9,
		}})
		if resp.Err != "" {
			return fmt.Errorf("register bulk principal %d: %s", k, resp.Err)
		}
		block = append(block, resp.Register.Principal)
		if len(block) == blockSize || k == bulk-1 {
			for j := 0; j+1 < len(block); j++ {
				resp := srv.Handle(&grm.Request{Share: &grm.ShareRequest{
					From: block[j], To: block[j+1], Fraction: 0.1 + rng.Float64()*0.3,
				}})
				if resp.Err != "" {
					return fmt.Errorf("share bulk block: %s", resp.Err)
				}
			}
			if len(block) >= 2 {
				resp := srv.Handle(&grm.Request{Share: &grm.ShareRequest{
					From: block[len(block)-1], To: block[0], Quantity: 1 + rng.Float64()*3,
				}})
				if resp.Err != "" {
					return fmt.Errorf("share bulk block close: %s", resp.Err)
				}
			}
			block = block[:0]
		}
	}
	return nil
}

type runConfig struct {
	addr      string
	inProcess bool
	op        string
	seed      int64
	duration  time.Duration
	warmup    time.Duration
	rtt       time.Duration // simulated round trip, injected client-side
}

// result is one measured run; the JSON shape is what lands in
// BENCH_transport.json.
type result struct {
	Mode        string  `json:"mode"`
	Op          string  `json:"op,omitempty"`
	Conns       int     `json:"conns"`
	Depth       int     `json:"depth,omitempty"`
	Shards      int     `json:"shards,omitempty"`
	Principals  int     `json:"principals,omitempty"`
	RTTms       float64 `json:"rtt_ms"`
	RatePerSec  float64 `json:"offered_rate_per_sec,omitempty"`
	Arrival     string  `json:"arrival,omitempty"`
	Ops         int64   `json:"ops"`
	Errors      int64   `json:"errors"`
	Seconds     float64 `json:"seconds"`
	MsgsPerSec  float64 `json:"msgs_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	P50ms       float64 `json:"p50_ms"`
	P90ms       float64 `json:"p90_ms"`
	P99ms       float64 `json:"p99_ms"`
}

func printResult(r result) {
	b, _ := json.MarshalIndent(r, "", "  ")
	fmt.Println(string(b))
}

// worker is one driving goroutine's state: a preallocated latency sample
// buffer (so measurement itself does not allocate) and an op counter.
type worker struct {
	lrm     *grm.LRM
	peers   int          // connections in this run; bounds share targets
	ticket  atomic.Int64 // live share ticket for the churn mix, -1 if none
	ops     atomic.Int64
	errs    atomic.Int64
	samples []float64 // milliseconds; sampled 1-in-sampleEvery
	mu      sync.Mutex
}

const (
	sampleEvery = 4
	sampleCap   = 1 << 16
)

// doOp runs one operation of the configured mix; n sequences the mix and
// the report values.
func doOp(w *worker, op string, n int64) error {
	l := w.lrm
	switch {
	case op == "ping" || (op == "mixed" && n%4 != 0):
		return l.Ping()
	case op == "share":
		return w.churnOp(n)
	case op == "alloc":
		reply, err := l.Allocate(0.5)
		if err != nil {
			return err
		}
		return l.Release(reply.Lease)
	default:
		return l.Report(float64(50 + n%32))
	}
}

// churnOp is one step of the agreement-churn mix: share/revoke cycles
// interleaved with allocate+release pairs (so the server holds a live
// planner to patch incrementally on every share and rebuild on every
// revoke) and availability reports. The live ticket alternates through
// an atomic so concurrent pipeline lanes on the same connection never
// double-revoke.
func (w *worker) churnOp(n int64) error {
	l := w.lrm
	switch n % 4 {
	case 0, 2:
		if t := w.ticket.Swap(-1); t >= 0 {
			return l.Revoke(int(t))
		}
		if w.peers < 2 {
			return l.Report(float64(50 + n%32))
		}
		tk, err := l.ShareRelative((l.Principal()+1)%w.peers, 0.05)
		if err != nil {
			return err
		}
		w.ticket.Store(int64(tk))
		return nil
	case 1:
		reply, err := l.Allocate(0.5)
		if err != nil {
			return err
		}
		return l.Release(reply.Lease)
	default:
		return l.Report(float64(50 + n%32))
	}
}

// measure times one op into the worker's sample buffer.
func (w *worker) measure(op string, n int64) {
	start := time.Now()
	err := doOp(w, op, n)
	elapsed := time.Since(start)
	if err != nil {
		w.errs.Add(1)
		return
	}
	w.ops.Add(1)
	if n%sampleEvery == 0 {
		w.mu.Lock()
		if len(w.samples) < sampleCap {
			w.samples = append(w.samples, float64(elapsed)/1e6)
		}
		w.mu.Unlock()
	}
}

// dialWorkers connects the per-connection clients, injecting the
// simulated RTT when one is configured.
func dialWorkers(cfg runConfig, conns int) ([]*worker, error) {
	workers := make([]*worker, conns)
	for i := range workers {
		dial := grm.DefaultDialConfig()
		if cfg.rtt > 0 {
			oneWay := cfg.rtt / 2
			dial.Dialer = func(addr string) (net.Conn, error) {
				c, err := net.DialTimeout("tcp", addr, 5*time.Second)
				if err != nil {
					return nil, err
				}
				return newDelayConn(c, oneWay), nil
			}
		}
		lrm, err := grm.DialWithConfig(cfg.addr, fmt.Sprintf("load%d", i), 100, dial)
		if err != nil {
			for _, w := range workers[:i] {
				w.lrm.Close()
			}
			return nil, fmt.Errorf("dial worker %d: %w", i, err)
		}
		w := &worker{lrm: lrm, peers: conns, samples: make([]float64, 0, sampleCap)}
		w.ticket.Store(-1)
		workers[i] = w
	}
	return workers, nil
}

// collect folds the workers into one result, computing percentiles from
// the pooled samples.
func collect(workers []*worker, r result, elapsed time.Duration) result {
	var samples []float64
	for _, w := range workers {
		r.Ops += w.ops.Load()
		r.Errors += w.errs.Load()
		samples = append(samples, w.samples...)
	}
	r.Seconds = elapsed.Seconds()
	if r.Seconds > 0 {
		r.MsgsPerSec = float64(r.Ops) / r.Seconds
	}
	sort.Float64s(samples)
	r.P50ms = percentile(samples, 0.50)
	r.P90ms = percentile(samples, 0.90)
	r.P99ms = percentile(samples, 0.99)
	return r
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// runClosed keeps conns×depth operations in flight for the configured
// duration. With the in-process server it also reports allocations per
// operation across both ends of the wire.
func runClosed(cfg runConfig, conns, depth int) result {
	workers, err := dialWorkers(cfg, conns)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		for _, w := range workers {
			w.lrm.Close()
		}
	}()

	var stop atomic.Bool
	var measuring atomic.Bool
	var wg sync.WaitGroup
	for wi, w := range workers {
		for d := 0; d < depth; d++ {
			wg.Add(1)
			go func(w *worker, lane int64) {
				defer wg.Done()
				for n := lane; !stop.Load(); n++ {
					if measuring.Load() {
						w.measure(cfg.op, n)
					} else if err := doOp(w, cfg.op, n); err != nil {
						w.errs.Add(1)
					}
				}
			}(w, int64(wi*depth+d)<<32)
		}
	}

	time.Sleep(cfg.warmup)
	var before, after runtime.MemStats
	if cfg.inProcess {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	measuring.Store(true)
	time.Sleep(cfg.duration)
	measuring.Store(false)
	elapsed := time.Since(start)
	if cfg.inProcess {
		runtime.ReadMemStats(&after)
	}
	stop.Store(true)
	wg.Wait()

	r := collect(workers, result{
		Mode: "closed", Op: cfg.op, Conns: conns, Depth: depth,
		RTTms: float64(cfg.rtt) / 1e6,
	}, elapsed)
	if cfg.inProcess && r.Ops > 0 {
		r.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(r.Ops)
	}
	return r
}

// runOpen offers arrivals at the target rate with the chosen
// inter-arrival distribution; a pool of connections serves them and
// latency is measured from arrival (queueing delay included).
func runOpen(cfg runConfig, conns int, rate float64, arrival string) (result, error) {
	if rate <= 0 {
		return result{}, fmt.Errorf("open loop needs -rate > 0")
	}
	gap := func(rng *rand.Rand) time.Duration { return time.Duration(float64(time.Second) / rate) }
	switch arrival {
	case "uniform":
	case "poisson":
		gap = func(rng *rand.Rand) time.Duration {
			return time.Duration(rng.ExpFloat64() * float64(time.Second) / rate)
		}
	default:
		return result{}, fmt.Errorf("unknown -arrival %q (want poisson or uniform)", arrival)
	}
	workers, err := dialWorkers(cfg, conns)
	if err != nil {
		return result{}, err
	}
	defer func() {
		for _, w := range workers {
			w.lrm.Close()
		}
	}()

	// Arrivals carry their birth time; workers measure from it so time
	// spent queued for a free connection counts against latency.
	arrivals := make(chan time.Time, 4*conns)
	var wg sync.WaitGroup
	var seq atomic.Int64
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for born := range arrivals {
				n := seq.Add(1)
				err := doOp(w, cfg.op, n)
				elapsed := time.Since(born)
				if err != nil {
					w.errs.Add(1)
					continue
				}
				w.ops.Add(1)
				if n%sampleEvery == 0 {
					w.mu.Lock()
					if len(w.samples) < sampleCap {
						w.samples = append(w.samples, float64(elapsed)/1e6)
					}
					w.mu.Unlock()
				}
			}
		}(w)
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	start := time.Now()
	deadline := start.Add(cfg.duration)
	next := start
	for {
		now := time.Now()
		if now.After(deadline) {
			break
		}
		if next.After(now) {
			time.Sleep(next.Sub(now))
		}
		arrivals <- time.Now()
		next = next.Add(gap(rng))
	}
	close(arrivals)
	wg.Wait()
	elapsed := time.Since(start)

	r := collect(workers, result{
		Mode: "open", Op: cfg.op, Conns: conns,
		RatePerSec: rate, Arrival: arrival,
		RTTms: float64(cfg.rtt) / 1e6,
	}, elapsed)
	return r, nil
}

// benchFile is the BENCH_transport.json layout.
type benchFile struct {
	Schema        string    `json:"schema"`
	UpdatedAt     string    `json:"updated_at"`
	CodecCost     codecCost `json:"codec_cost"`
	CurrentBinary *result   `json:"current_binary"`
	ChurnShare    *result   `json:"churn_share,omitempty"`
	ShardedPlan   *result   `json:"sharded_plan,omitempty"`
	Ramp          []result  `json:"ramp,omitempty"`
}

// codecCost is the codec at the message level: the cost of one
// self-contained request/response exchange, which is the unit the framed
// transport works in (every frame is independently decodable and
// reorderable).
type codecCost struct {
	Unit   string               `json:"unit"`
	Binary *grm.WireBenchResult `json:"binary"`
}

const codecCostUnit = "one self-contained request+response exchange (report + alloc taking from 4 of 16 principals), marshal+unmarshal both ends, no stream state reused between messages"

// runSuite is the standard suite: the pipelined closed loop at the
// requested depth, connection count and simulated RTT under three
// operation mixes, the message-level codec benchmark and a concurrency
// ramp.
func runSuite(path string, cfg runConfig, conns, depth, shards, bulk int, logger *log.Logger) error {
	file := &benchFile{Schema: "bench-transport/v2"}

	const benchIters = 20000
	binCost, err := grm.BenchWireCodec(grm.CodecBinary, benchIters)
	if err != nil {
		return err
	}
	file.CodecCost = codecCost{Unit: codecCostUnit, Binary: &binCost}

	logger.Printf("measuring mixed (%d conns, depth %d, rtt %v)...", conns, depth, cfg.rtt)
	binRes := runClosed(cfg, conns, depth)
	file.CurrentBinary = &binRes

	// Agreement churn: the -op share mix keeps the server's planner under
	// constant share/revoke pressure with periodic allocations, so this
	// section tracks the incremental planner-patch path end to end.
	logger.Printf("measuring agreement churn (%d conns, depth %d, rtt %v)...", conns, depth, cfg.rtt)
	churnCfg := cfg
	churnCfg.op = "share"
	churnRes := runClosed(churnCfg, conns, depth)
	file.ChurnShare = &churnRes

	// Sharded allocation: a fresh shard router with a bulk-registered
	// population, driven by an allocate+release mix — the end-to-end cost
	// of routing, per-shard journaling, and a ComponentLP plan against a
	// large book. -shards and -principals resize it; the defaults keep the
	// suite fast on one core.
	if shards <= 0 {
		shards = 4
	}
	if bulk <= 0 {
		bulk = 2000
	}
	logger.Printf("measuring sharded plan (%d shards, %d principals, %d conns, depth %d)...", shards, bulk, conns, depth)
	shSrv, shAddr, err := spawnServer(shards, bulk, cfg.seed)
	if err != nil {
		return err
	}
	shCfg := cfg
	shCfg.addr = shAddr
	shCfg.op = "alloc"
	shRes := runClosed(shCfg, conns, depth)
	shRes.Shards = shards
	shRes.Principals = bulk
	file.ShardedPlan = &shRes
	shSrv.Close()

	for _, c := range []int{1, 2, conns} {
		if c > conns {
			continue
		}
		file.Ramp = append(file.Ramp, runClosed(cfg, c, depth))
	}
	file.UpdatedAt = time.Now().UTC().Format(time.RFC3339)

	out, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	logger.Printf("mixed: %.0f msgs/s, p50 %.2f ms; codec: %.0f ns and %.1f allocs per exchange, %d B per message",
		binRes.MsgsPerSec, binRes.P50ms, binCost.NsPerOp, binCost.AllocsPerOp, binCost.BytesPerMsg)
	return nil
}

// delayChunk is a batch of bytes plus the instant it is allowed to
// touch the far side of the simulated link.
type delayChunk struct {
	at   time.Time
	data []byte
}

// delayConn adds a fixed one-way latency to each direction of a
// connection without limiting bandwidth: writes are released to the
// underlying conn oneWay later by a pump goroutine, and bytes read from
// the conn become visible to Read oneWay after they arrive. Deadlines
// are no-ops — the benchmark clients' operation timeouts are far larger
// than the simulated RTT, and Close unblocks everything.
type delayConn struct {
	net.Conn
	oneWay time.Duration

	wch   chan delayChunk
	wdone chan struct{}
	werr  atomic.Value // error
	once  sync.Once

	rch  chan delayChunk
	rbuf []byte
	rerr error
}

func newDelayConn(c net.Conn, oneWay time.Duration) *delayConn {
	d := &delayConn{
		Conn:   c,
		oneWay: oneWay,
		wch:    make(chan delayChunk, 1024),
		wdone:  make(chan struct{}),
		rch:    make(chan delayChunk, 1024),
	}
	go d.writePump()
	go d.readPump()
	return d
}

func (d *delayConn) writePump() {
	for {
		select {
		case <-d.wdone:
			return
		case ch := <-d.wch:
			if wait := time.Until(ch.at); wait > 0 {
				time.Sleep(wait)
			}
			if d.werr.Load() != nil {
				continue // keep draining so writers never block on a dead link
			}
			if _, err := d.Conn.Write(ch.data); err != nil {
				d.werr.Store(err)
			}
		}
	}
}

func (d *delayConn) readPump() {
	for {
		buf := make([]byte, 32<<10)
		n, err := d.Conn.Read(buf)
		if n > 0 {
			d.rch <- delayChunk{at: time.Now().Add(d.oneWay), data: buf[:n]}
		}
		if err != nil {
			d.rerr = err
			close(d.rch)
			return
		}
	}
}

func (d *delayConn) Write(b []byte) (int, error) {
	if err, _ := d.werr.Load().(error); err != nil {
		return 0, err
	}
	data := append([]byte(nil), b...)
	select {
	case d.wch <- delayChunk{at: time.Now().Add(d.oneWay), data: data}:
		return len(b), nil
	case <-d.wdone:
		return 0, net.ErrClosed
	}
}

func (d *delayConn) Read(p []byte) (int, error) {
	if len(d.rbuf) == 0 {
		ch, ok := <-d.rch
		if !ok {
			return 0, d.rerr
		}
		if wait := time.Until(ch.at); wait > 0 {
			time.Sleep(wait)
		}
		d.rbuf = ch.data
	}
	n := copy(p, d.rbuf)
	d.rbuf = d.rbuf[n:]
	return n, nil
}

func (d *delayConn) Close() error {
	d.once.Do(func() { close(d.wdone) })
	return d.Conn.Close()
}

func (d *delayConn) SetDeadline(time.Time) error      { return nil }
func (d *delayConn) SetReadDeadline(time.Time) error  { return nil }
func (d *delayConn) SetWriteDeadline(time.Time) error { return nil }
