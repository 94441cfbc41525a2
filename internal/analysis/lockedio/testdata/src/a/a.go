// Package a is golden input for the lockedio analyzer.
package a

import (
	"encoding/json"
	"net"
	"sync"
)

type S struct {
	mu sync.Mutex
	rw sync.RWMutex
}

func badRead(s *S, c net.Conn, buf []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c.Read(buf) // want "conn read while holding s.mu"
}

func goodRead(s *S, c net.Conn, buf []byte) {
	s.mu.Lock()
	s.mu.Unlock()
	c.Read(buf) // lock released first: ok
}

func badWriteRLocked(s *S, c net.Conn, buf []byte) {
	s.rw.RLock()
	c.Write(buf) // want "conn write while holding s.rw"
	s.rw.RUnlock()
}

func badDial(s *S) {
	s.mu.Lock()
	defer s.mu.Unlock()
	net.Dial("tcp", "localhost:1") // want "network dial/listen"
}

func badAccept(s *S, ln net.Listener) {
	s.mu.Lock()
	ln.Accept() // want "listener accept while holding s.mu"
	s.mu.Unlock()
}

func badSend(s *S, ch chan int) {
	s.mu.Lock()
	ch <- 1 // want "blocking channel send while holding s.mu"
	s.mu.Unlock()
}

func badSelect(s *S, ch chan int) {
	s.mu.Lock()
	select {
	case ch <- 1: // want "blocking channel send in select"
	}
	s.mu.Unlock()
}

func nonBlockingSelect(s *S, ch chan int) {
	s.mu.Lock()
	select {
	case ch <- 1:
	default: // non-blocking: ok
	}
	s.mu.Unlock()
}

func badCodec(s *S, dec *json.Decoder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var v int
	dec.Decode(&v) // want "json decode from the stream"
}

func doIO(c net.Conn, buf []byte) {
	c.Read(buf)
}

func badTransitive(s *S, c net.Conn, buf []byte) {
	s.mu.Lock()
	doIO(c, buf) // want "call to doIO which conn read"
	s.mu.Unlock()
}

func branchMerge(s *S, ok bool) {
	s.mu.Lock()
	if ok {
		s.mu.Unlock()
		return
	}
	net.Dial("tcp", "localhost:1") // want "network dial/listen"
	s.mu.Unlock()
}

func bothBranchesRelease(s *S, ok bool, c net.Conn, buf []byte) {
	s.mu.Lock()
	if ok {
		s.mu.Unlock()
	} else {
		s.mu.Unlock()
	}
	c.Read(buf) // released on every path: ok
}

func async(s *S, c net.Conn, buf []byte) {
	s.mu.Lock()
	go doIO(c, buf) // runs outside the lock region: ok
	s.mu.Unlock()
}

type cfg struct {
	Dialer func(addr string) (net.Conn, error)
}

func badFuncDial(s *S, c cfg) {
	s.mu.Lock()
	c.Dialer("localhost:1") // want "dial through Dialer"
	s.mu.Unlock()
}

// serialize intentionally holds s.mu across the exchange: the wire
// protocol is strictly alternating and every op is deadline-bounded.
//
//lint:ignore sharingvet/lockedio wire-protocol serialization is the design
func serialize(s *S, c net.Conn, buf []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c.Write(buf)
	c.Read(buf)
}

func suppressedInline(s *S, c net.Conn, buf []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	//lint:ignore sharingvet/lockedio bounded by the caller's deadline
	c.Read(buf)
}

// solve stands in for a pure CPU-bound computation (an LP solve).
func solve(v []float64) float64 {
	var x float64
	for _, y := range v {
		x += y
	}
	return x
}

// unlockSolveRelock is the optimistic-concurrency shape: snapshot under
// the lock, drop it for the solve, and re-acquire to commit. No
// diagnostic — the solve runs outside the lock region, and a pure
// computation is not I/O even when a later relocked section follows.
func unlockSolveRelock(s *S, v []float64) float64 {
	s.mu.Lock()
	snap := append([]float64(nil), v...)
	s.mu.Unlock()
	r := solve(snap)
	s.mu.Lock()
	defer s.mu.Unlock()
	return r
}

// unlockIORelock drops the lock around the network round trip and
// re-acquires it to commit (the federation borrow shape): ok.
func unlockIORelock(s *S, c net.Conn, buf []byte) {
	s.mu.Lock()
	s.mu.Unlock()
	c.Read(buf)
	s.mu.Lock()
	s.mu.Unlock()
}

// relockThenIO re-acquires after an unlocked stretch and only then does
// I/O: the second critical section must still be flagged.
func relockThenIO(s *S, c net.Conn, buf []byte) {
	s.mu.Lock()
	s.mu.Unlock()
	solve(nil)
	s.mu.Lock()
	c.Read(buf) // want "conn read while holding s.mu"
	s.mu.Unlock()
}

// A switch's Init, a for statement's Post and a type switch's Assign run
// under the lock like any other statement.

func badSwitchInit(s *S, c net.Conn, buf []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch n, _ := c.Read(buf); n { // want "conn read while holding s.mu"
	case 0:
	}
}

func badForPost(s *S, c net.Conn, buf []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < 2; c.Read(buf) { // want "conn read while holding s.mu"
		i++
	}
}

func writeAny(c net.Conn, buf []byte) any {
	c.Write(buf)
	return nil
}

func badTypeSwitchAssign(s *S, c net.Conn, buf []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch writeAny(c, buf).(type) { // want "call to writeAny which conn write while holding s.mu"
	case nil:
	}
}
