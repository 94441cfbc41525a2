package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/grm"
)

// The load generator: one process, two connections, and generator
// goroutines that are nothing but operations blocked on their replies.
// Every latency sample is kept (buffers are preallocated per window), a
// failed operation stays in the denominator, and open-loop latency runs
// from the instant the request was due, not from when the generator got
// round to sending it.

const (
	closedLanesPerConn = 8
	// openWorkersPerConn bounds open-loop requests in flight per
	// connection; it sits below the transport's 64-request pipelining cap
	// so a backlog queues here, where its wait is timed.
	openWorkersPerConn = 32
	// oversizeEvery makes one request in eight exceed local capacity on
	// workloads that can borrow.
	oversizeEvery = 8
	// churnFraction is the relative share a churn cycle creates and
	// revokes; small enough that every worker's concurrent share on one
	// row keeps the row far below 1.
	churnFraction = 0.005
)

type opKind int

const (
	opAlloc  opKind = iota // allocate served from local books
	opBorrow               // oversized allocate that borrows from the root
	opRelease
	opShare
	opRevoke
	opReport
	numOps
)

var opNames = [numOps]string{"alloc", "borrow", "release", "share", "revoke", "report"}

// lane is one generator goroutine's private state: its connection, its
// seeded request stream, and every sample it took in the current window.
type lane struct {
	lrm *grm.LRM
	// gate is shared by the lanes of one connection on workloads that
	// borrow: an oversized allocate holds it exclusively, local ones share
	// it. The server sizes a borrow from a snapshot of the requester's
	// capacity and refuses the request if that capacity shrank during the
	// round trip to the root, so an LRM that wants every request served
	// does not race its own oversized request with its local ones.
	gate     *sync.RWMutex
	rng      *rand.Rand
	n        int     // transactions started; picks the oversized ones
	shareTo  int     // churn: the block neighbour this lane shares to
	capacity float64 // churn: the availability the lane reports

	lat       [numOps][]float64 // milliseconds
	attempted int64
	failed    int64
	done      atomic.Int64 // operations that succeeded, read by the window clock
	lastEnd   time.Time    // closed loop: when the lane's latest transaction returned
	spans     []span       // traced windows only
	keep      bool         // record latency samples (the open loop)
	traced    bool         // record a span per operation as well
}

type driver struct {
	c    *cluster
	seed int64
	// streams numbers the seeded request streams handed out so far, so
	// every lane of every window draws its own reproducible sequence.
	streams int64
	// bad latches the first incorrect reply; a run that saw one prints no
	// metrics.
	bad atomic.Pointer[error]
	// refused latches the first operation the server failed or refused,
	// for the report; such operations are counted, not fatal.
	refused atomic.Pointer[error]
	nextReq atomic.Uint64
}

func (d *driver) newRNG() *rand.Rand {
	d.streams++
	return rand.New(rand.NewSource(d.seed<<20 + d.streams))
}

// lanes builds perConn generator lanes per connection. samplesPerLane
// sizes the latency buffers; 0 means the window only counts.
func (d *driver) lanes(perConn int, samplesPerLane int, traced bool) []*lane {
	out := make([]*lane, 0, 2*perConn)
	for conn, l := range d.c.lrms {
		own := d.c.pop.live[conn]
		gate := &sync.RWMutex{}
		for k := 0; k < perConn; k++ {
			ln := &lane{lrm: l, gate: gate, rng: d.newRNG(), keep: samplesPerLane > 0, traced: traced, capacity: d.c.pop.caps[own]}
			if d.c.w.churn {
				ln.shareTo = d.c.ids[own+1+k%7]
			}
			for op := range ln.lat {
				ln.lat[op] = make([]float64, 0, samplesPerLane)
			}
			out = append(out, ln)
		}
	}
	return out
}

// op runs one wire operation, timing it from start. It reports whether
// the operation succeeded.
func (d *driver) op(ln *lane, kind opKind, start time.Time, req uint64, call func() error) bool {
	ln.attempted++
	err := call()
	end := time.Now()
	if err != nil {
		ln.failed++
		err = fmt.Errorf("%s: %w", opNames[kind], err)
		d.refused.CompareAndSwap(nil, &err)
		return false
	}
	ln.done.Add(1)
	if ln.keep {
		ln.lat[kind] = append(ln.lat[kind], float64(end.Sub(start))/1e6)
	}
	if ln.traced {
		ln.spans = append(ln.spans, span{Name: "client." + opNames[kind], Start: start, End: end, Req: req})
	}
	return true
}

// transact runs one arrival: allocate → release, or the churn cycle
// share → alloc → release → revoke → report. The first operation is timed
// from due (the open loop's schedule; the closed loop passes now), each
// later one from when its predecessor returned — it was due then.
func (d *driver) transact(ln *lane, due time.Time) {
	w := d.c.w
	ln.n++
	req := d.nextReq.Add(1)
	ticket := -1
	if w.churn {
		ok := d.op(ln, opShare, due, req, func() (err error) {
			ticket, err = ln.lrm.ShareRelative(ln.shareTo, churnFraction)
			return err
		})
		if !ok {
			return
		}
		due = time.Now()
	}
	kind, amount := opAlloc, 0.0
	lock, unlock := ln.gate.RLock, ln.gate.RUnlock
	if w.oversize != nil && ln.n%oversizeEvery == 0 {
		kind, amount = opBorrow, w.oversize(ln.rng)
		lock, unlock = ln.gate.Lock, ln.gate.Unlock
	} else {
		amount = w.amount(ln.rng)
	}
	var reply *grm.AllocReply
	ok := d.op(ln, kind, due, req, func() (err error) {
		lock()
		defer unlock()
		reply, err = ln.lrm.Allocate(amount)
		return err
	})
	if ok {
		if err := checkAlloc(reply, amount); err != nil {
			d.bad.CompareAndSwap(nil, &err)
		}
		d.op(ln, opRelease, time.Now(), req, func() error { return ln.lrm.Release(reply.Lease) })
	}
	if w.churn {
		d.op(ln, opRevoke, time.Now(), req, func() error { return ln.lrm.Revoke(ticket) })
		d.op(ln, opReport, time.Now(), req, func() error { return ln.lrm.Report(ln.capacity) })
	}
}

// window is what one measured window produced.
type window struct {
	ops int64 // closed loop: operations that had succeeded when the window clock stopped
	// rate is the closed loop's operations per second: each lane's
	// operations over the time to its own last completion, summed. Cutting
	// every lane at one instant instead counts whole lockstep rounds of
	// 2×8 transactions, a step of 3 % on ring64 and 8 % on churn128 in a
	// one-second window.
	rate      float64
	attempted int64 // including the drain after the clock stopped
	failed    int64
	lat       [numOps][]float64 // ascending
	late      []float64         // ascending; how far behind schedule each open-loop send ran
	cpuUS     float64           // process user+sys CPU inside the window
	mallocs   uint64            // heap allocations inside the window
	spans     []span
}

// overLimit counts the open-loop requests that missed the latency limit —
// failed, refused, or answered later than limitMS — and all that arrived.
func (win *window) overLimit(limitMS float64) (over, arrivals int) {
	over, arrivals = int(win.failed), int(win.failed)
	for _, op := range []opKind{opAlloc, opBorrow} {
		for _, ms := range win.lat[op] {
			if ms > limitMS {
				over++
			}
		}
		arrivals += len(win.lat[op])
	}
	return over, arrivals
}

func merge(lanes []*lane, win *window) {
	for _, ln := range lanes {
		win.attempted += ln.attempted
		win.failed += ln.failed
		for op := range ln.lat {
			win.lat[op] = append(win.lat[op], ln.lat[op]...)
		}
		win.spans = append(win.spans, ln.spans...)
	}
	for op := range win.lat {
		sort.Float64s(win.lat[op])
	}
	sort.Float64s(win.late)
}

func cpuMicros() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

// closed keeps 2 connections × closedLanesPerConn operations in flight for
// dur and counts what completed. CPU and allocations cover this process,
// generator included. during, when set, runs alongside the window (the
// traced pass samples the queue depth there).
func (d *driver) closed(dur time.Duration, during func(stop <-chan struct{})) *window {
	return d.loop(d.lanes(closedLanesPerConn, 0, false), dur, during)
}

// sequential keeps exactly one operation in flight, on the first
// connection. Nothing moves the server's state under a plan, so no plan is
// solved twice and the heap allocations per operation are the code's own:
// under the closed loop they also count the re-solves, which follow the
// host's weather (141 to 160 an operation on churn128).
func (d *driver) sequential(dur time.Duration) *window {
	return d.loop(d.lanes(1, 0, false)[:1], dur, nil)
}

// loop runs every lane's transactions back to back for dur.
func (d *driver) loop(lanes []*lane, dur time.Duration, during func(stop <-chan struct{})) *window {
	var stop atomic.Bool
	var wg sync.WaitGroup
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuMicros()
	start := time.Now()
	for _, ln := range lanes {
		wg.Add(1)
		go func(ln *lane) {
			defer wg.Done()
			for !stop.Load() {
				d.transact(ln, time.Now())
				ln.lastEnd = time.Now()
			}
		}(ln)
	}
	sideStop := make(chan struct{})
	var side sync.WaitGroup
	if during != nil {
		side.Add(1)
		go func() {
			defer side.Done()
			during(sideStop)
		}()
	}
	completed := func() (n int64) {
		for _, ln := range lanes {
			n += ln.done.Load()
		}
		return n
	}
	time.Sleep(dur)
	// A window holds at least one operation where the host allows it at
	// all: under the race detector a ring64 batch takes half a second, more
	// than the smoke run's whole window.
	for limit := start.Add(20 * dur); completed() == 0 && time.Now().Before(limit); {
		time.Sleep(dur / 20)
	}
	win := &window{ops: completed()}
	win.cpuUS = cpuMicros() - cpu0
	runtime.ReadMemStats(&after)
	win.mallocs = after.Mallocs - before.Mallocs
	stop.Store(true)
	close(sideStop)
	wg.Wait()
	side.Wait()
	for _, ln := range lanes {
		win.rate += float64(ln.done.Load()) / ln.lastEnd.Sub(start).Seconds()
	}
	merge(lanes, win)
	return win
}

// pause blocks the calling goroutine's thread in nanosleep. time.Sleep
// parks the goroutine on the runtime's timers, which an otherwise idle
// process services from epoll at millisecond granularity — a millisecond
// late on a 400 us gap; a thread asleep in the kernel wakes within tens of
// microseconds and burns no CPU waiting.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early wake-up only makes the next pause shorter
}

// open offers Poisson arrivals at rate per second for dur, whatever the
// server does with them. Workers pick arrivals up as connections allow;
// an arrival's latency runs from its due time, so a stall is charged to
// every request it delays.
func (d *driver) open(dur time.Duration, rate float64, traced bool) *window {
	perLane := int(2*rate*dur.Seconds())/(2*openWorkersPerConn) + 64
	lanes := d.lanes(openWorkersPerConn, perLane, traced)
	// Sized so a stalled server backs the schedule up here, where the wait
	// is timed, before the generator itself blocks.
	arrivals := make(chan time.Time, 4096)
	var wg sync.WaitGroup
	for _, ln := range lanes {
		wg.Add(1)
		go func(ln *lane) {
			defer wg.Done()
			for due := range arrivals {
				d.transact(ln, due)
			}
		}(ln)
	}
	rng := d.newRNG()
	win := &window{late: make([]float64, 0, int(2*rate*dur.Seconds())+64)}
	start := time.Now()
	end := start.Add(dur)
	for next := start; next.Before(end); next = next.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second))) {
		if wait := time.Until(next); wait > 0 {
			pause(wait)
		}
		win.late = append(win.late, float64(time.Since(next))/1e6)
		arrivals <- next
	}
	close(arrivals)
	wg.Wait()
	merge(lanes, win)
	return win
}
