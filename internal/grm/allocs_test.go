//go:build !race

package grm

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/vclock"
)

// TestRegisterShareAllocs pins a register, a re-attach and a share through
// Server.Handle in a population of 16 384 with a journal attached. A
// reply is one allocation, envelope and payload together. Each of the
// three is its reply alone, past the amortized growth of the books' tables:
// a register's name is found by one map lookup, a new principal appends one
// entry to each per-principal table and no ticket table, and the log lines
// box nothing for the discarding logger. No plan has run,
// so no planner is patched: core's and transitive's own pins hold what that
// costs.
func TestRegisterShareAllocs(t *testing.T) {
	const n, runs = 16384, 200
	s := NewServer(core.Config{}, nil)
	defer s.Close()
	for _, name := range nameList("p", n) {
		registerAs(t, s, name, 10)
	}
	s.SetLog(store.NewMemLog())
	fresh, k := nameList("q", runs+1), 0 // AllocsPerRun calls once more to warm up
	register := &Request{Register: &RegisterRequest{Capacity: 10}}
	regs := testing.AllocsPerRun(runs, func() {
		register.Register.Name, k = fresh[k], k+1
		if resp := s.Handle(register); resp.Register == nil || resp.Register.Principal != n+k-1 {
			t.Fatalf("register: %+v", resp)
		}
	})
	reattach := &Request{Register: &RegisterRequest{Name: "p7", Capacity: 12}}
	reattaches := testing.AllocsPerRun(runs, func() {
		if resp := s.Handle(reattach); resp.Register == nil || resp.Register.Principal != 7 {
			t.Fatalf("re-attach: %+v", resp)
		}
	})
	// Shares go round a ring of eight, so the ticket lists of the currencies
	// they join grow by doubling, as a tenant's do.
	share := &Request{Share: &ShareRequest{Fraction: 0.001}}
	shares := testing.AllocsPerRun(runs, func() {
		share.Share.From, share.Share.To = k%8, (k+1)%8
		k++
		if resp := s.Handle(share); resp.Share == nil {
			t.Fatal(resp.Err)
		}
	})
	t.Logf("n=%d: a register makes %v allocations, a re-attach %v, a share %v", n, regs, reattaches, shares)
	for _, c := range []struct {
		op        string
		got, want float64
	}{{"register", regs, 1}, {"re-attach", reattaches, 1}, {"share", shares, 1}} {
		if c.got > c.want {
			t.Errorf("a %s makes %v allocations, want at most %v", c.op, c.got, c.want)
		}
	}
}

// TestRegisterPlannedAllocs pins a register to a Server whose planner is
// cached — one allocation has run — which grows the planner in place: an
// amortized append to each of its per-principal tables. Registering as many
// principals again as there are, a register makes at most 1.05 allocations
// and 1 850 bytes on average (its reply and the amortized growth of the
// books' and the planner's tables; 1.02 and about 1.68 KB measured, 1.7 KB
// while the planner kept a skeleton slot per principal), and the same bytes
// within a quarter in a population of 4 096 and of 16 384: nothing is
// copied per register that grows with the population. The planner is never
// rebuilt.
func TestRegisterPlannedAllocs(t *testing.T) {
	perRegister := map[int]float64{}
	for _, n := range []int{4096, 16384} {
		// ComponentLP: the allocation's LP is its requester's component, not
		// the population.
		s := NewServer(core.Config{ComponentLP: true}, nil)
		for _, name := range nameList("p", n) {
			registerAs(t, s, name, 10)
		}
		if resp := s.Handle(&Request{Alloc: &AllocRequest{Principal: 3, Amount: 1}}); resp.Alloc == nil {
			t.Fatal(resp.Err)
		}
		fresh := nameList("q", n)
		register := &Request{Register: &RegisterRequest{Capacity: 10}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for k, name := range fresh {
			register.Register.Name = name
			if resp := s.Handle(register); resp.Register == nil || resp.Register.Principal != n+k {
				t.Fatalf("register: %+v", resp)
			}
		}
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs-before.Mallocs) / float64(n)
		perRegister[n] = float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
		s.mu.Lock()
		cached, builds := s.planner != nil, s.plannerBuilds
		s.mu.Unlock()
		t.Logf("n=%d: a register with the planner cached makes %.3f allocations and %.0f bytes", n, allocs, perRegister[n])
		if !cached || builds != 1 {
			t.Errorf("n=%d: after the registers the planner is cached = %v after %d builds, want cached after 1", n, cached, builds)
		}
		if allocs > 1.05 {
			t.Errorf("n=%d: a register with the planner cached makes %.3f allocations, want at most 1.05", n, allocs)
		}
		if perRegister[n] > 1850 {
			t.Errorf("n=%d: a register with the planner cached allocates %.0f bytes, want at most 1850", n, perRegister[n])
		}
		s.Close()
	}
	if small, large := perRegister[4096], perRegister[16384]; large > 1.25*small {
		t.Errorf("a register with the planner cached allocates %.0f bytes at n=4096 and %.0f at n=16384, want the same within a quarter", small, large)
	}
}

// TestShardedRegisterAllocs pins the router's share of a register: routing
// by name hashes it in place, so a register through Sharded.Handle makes no
// more allocations than the same register through its shard's Server.
func TestShardedRegisterAllocs(t *testing.T) {
	const runs = 200
	g := NewSharded(2, core.Config{}, nil)
	defer g.Close()
	if err := g.SetLogs([]store.Log{store.NewMemLog(), store.NewMemLog()}); err != nil {
		t.Fatal(err)
	}
	// Names of shard 0 only, half registered through the router and half
	// straight into the shard, so both paths grow the same books.
	var names []string
	for i := 0; len(names) < 2*(runs+1); i++ {
		if name := fmt.Sprintf("site%d/node", i); g.ShardOf(name) == 0 {
			names = append(names, name)
		}
	}
	count := func(handle func(*Request) *Response, names []string) float64 {
		k := 0
		req := &Request{Register: &RegisterRequest{Capacity: 10}}
		return testing.AllocsPerRun(runs, func() {
			req.Register.Name, k = names[k], k+1
			if resp := handle(req); resp.Register == nil {
				t.Fatal(resp.Err)
			}
		})
	}
	routed := count(g.Handle, names[:runs+1])
	direct := count(g.Shard(0).Handle, names[runs+1:])
	t.Logf("a register makes %v allocations through the router, %v through its shard", routed, direct)
	if routed > direct {
		t.Errorf("a register makes %v allocations through the router, %v through its shard: routing should cost none", routed, direct)
	}
}

// TestHandleAllocReleaseAllocs pins what one warmed allocate+release pair
// through Server.Handle heap-allocates with a journal attached: the grant,
// which is the lease, the reply with its envelope and the pairs of a grant
// of up to grantInline sources in one object — nothing for the admission
// job, the plan, the journal records or the release's acknowledgement.
// The race detector's instrumentation allocates, so the race legs skip
// this file.
func TestHandleAllocReleaseAllocs(t *testing.T) {
	s := blockServer(t, core.Config{ComponentLP: true}, 4)
	defer s.Close()
	s.SetLog(store.NewMemLog())
	pair := handlePair(t, s)
	for i := 0; i < 10; i++ {
		pair()
	}
	got := testing.AllocsPerRun(200, pair)
	t.Logf("an allocate+release pair through Handle makes %v allocations", got)
	if got > 1 {
		t.Fatalf("allocate+release pair makes %v allocations, want at most 1", got)
	}
}

// TestHandleAllocAfterCollectionAllocs is TestHandleAllocReleaseAllocs at
// the churn128 shape, 128 principals under the full formulation, with two
// collections before every pair: a server that sat idle through Go's forced
// collections plans its next request with the workspace and the job it
// already had, so the pair still makes its one allocation and rebuilds no
// simplex scratch. The pin reads the least of 20 rounds: the runtime's own
// goroutines (the unique package's cleanup after each collection, for one)
// allocate during some rounds and only ever add, while anything a
// collection empties would be rebuilt in every round.
func TestHandleAllocAfterCollectionAllocs(t *testing.T) {
	s := blockServer(t, core.Config{}, 16)
	defer s.Close()
	s.SetLog(store.NewMemLog())
	pair := handlePair(t, s)
	for i := 0; i < 10; i++ {
		pair()
	}
	least := uint64(math.MaxUint64)
	for i := 0; i < 20; i++ {
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pair()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	t.Logf("an allocate+release pair after two collections makes %d allocations", least)
	if least > 1 {
		t.Fatalf("an allocate+release pair after two collections makes %d allocations, want at most 1", least)
	}
}

// handlePair returns an allocate+release pair through s.Handle: principal
// 9 allocates 12.5 and releases the lease at once.
func handlePair(t *testing.T, s *Server) func() {
	alloc := &Request{Alloc: &AllocRequest{Principal: 9, Amount: 12.5}}
	release := &Request{Release: &ReleaseRequest{}}
	return func() {
		resp := s.Handle(alloc)
		if resp.Alloc == nil {
			t.Fatal(resp.Err)
		}
		release.Release.Lease = resp.Alloc.Lease
		if resp := s.Handle(release); resp.Err != "" {
			t.Fatal(resp.Err)
		}
	}
}

// TestWireAllocReleaseAllocs is the same pair from a real LRM over
// loopback, both ends of the connection counted: the server's grant, and
// the AllocReply Allocate hands its caller, decoded into one object with
// its pairs. Nothing for the frames, the request records, the handler
// workers or the replies' envelopes.
func TestWireAllocReleaseAllocs(t *testing.T) {
	s := blockServer(t, core.Config{ComponentLP: true}, 4)
	s.SetLog(store.NewMemLog())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	defer s.Close()
	lrm, err := Dial(l.Addr().String(), "paj", 11) // principal 9, as above
	if err != nil {
		t.Fatal(err)
	}
	defer lrm.Close()
	pair := func() {
		reply, err := lrm.Allocate(12.5)
		if err != nil {
			t.Fatal(err)
		}
		if err := lrm.Release(reply.Lease); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		pair()
	}
	got := testing.AllocsPerRun(200, pair)
	t.Logf("an allocate+release pair over the wire makes %v allocations", got)
	if got > 2 {
		t.Fatalf("allocate+release pair over the wire makes %v allocations, want at most 2", got)
	}
}

// TestGrantBoundaryAllocs pins the grant box at its edge (starServer): up
// to grantInline sources an allocate+release pair is one allocation on
// the server and one in the client; past it each side adds the two pair
// slices the box has no room for.
func TestGrantBoundaryAllocs(t *testing.T) {
	for _, n := range []int{1, grantInline, grantInline + 1, 63} {
		want := 1.0
		if n > grantInline {
			want = 3
		}
		s, _ := starServer(t, n)
		alloc := &Request{Alloc: &AllocRequest{Amount: float64(n) - 0.5}}
		release := &Request{Release: &ReleaseRequest{}}
		handlePair := func() {
			resp := s.Handle(alloc)
			if resp.Alloc == nil || len(resp.Alloc.Sources) != n {
				t.Fatalf("%d sources: %+v", n, resp)
			}
			release.Release.Lease = resp.Alloc.Lease
			if resp := s.Handle(release); resp.Err != "" {
				t.Fatal(resp.Err)
			}
		}
		handlePair()
		handled := testing.AllocsPerRun(100, handlePair)

		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go s.Serve(l)
		lrm, err := Dial(l.Addr().String(), "star0", 1)
		if err != nil {
			t.Fatal(err)
		}
		wirePair := func() {
			reply, err := lrm.Allocate(float64(n) - 0.5)
			if err != nil || len(reply.Sources) != n {
				t.Fatalf("%d sources: %+v, %v", n, reply, err)
			}
			if err := lrm.Release(reply.Lease); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			wirePair()
		}
		wired := testing.AllocsPerRun(100, wirePair)
		lrm.Close()
		s.Close()
		t.Logf("%d sources: a pair makes %v allocations through Handle, %v over the wire", n, handled, wired)
		if handled > want || wired > 2*want {
			t.Errorf("%d sources: a pair makes %v allocations through Handle and %v over the wire, want at most %v and %v", n, handled, wired, want, 2*want)
		}
	}
}

// TestShardedRoutingAllocs pins what the router adds to every kind it
// routes: an allocate+release pair, a report, a share and its revoke, and
// a renew cost as much through Sharded.Handle as straight through the
// owning shard, save the copy of an allocation's sources renamed into the
// global space.
func TestShardedRoutingAllocs(t *testing.T) {
	g := NewSharded(2, core.Config{ComponentLP: true}, nil)
	defer g.Close()
	g.SetLeaseTTL(time.Hour)
	if err := g.SetLogs([]store.Log{store.NewMemLog(), store.NewMemLog()}); err != nil {
		t.Fatal(err)
	}
	tree := subtreeNames(t, g)[0]
	var global, local [3]int
	for k := range global {
		global[k] = mustHandle(t, g, &Request{Register: &RegisterRequest{Name: fmt.Sprintf("%s/node%d", tree, k), Capacity: 100}}).Register.Principal
		_, local[k] = g.splitPrincipal(global[k])
	}
	mustHandle(t, g, &Request{Share: &ShareRequest{From: global[1], To: global[0], Fraction: 0.5}})
	kinds := []string{"allocate+release", "report", "share+revoke", "renew"}
	count := func(handle func(*Request) *Response, p [3]int) []float64 {
		must := func(req *Request) *Response {
			resp := handle(req)
			if resp.Err != "" {
				t.Fatal(resp.Err)
			}
			return resp
		}
		alloc := &Request{Alloc: &AllocRequest{Principal: p[0], Amount: 120}}
		release := &Request{Release: &ReleaseRequest{}}
		report := &Request{Report: &ReportRequest{Principal: p[2]}}
		share := &Request{Share: &ShareRequest{From: p[2], To: p[0], Fraction: 0.1}}
		revoke := &Request{Revoke: &RevokeRequest{}}
		held := must(&Request{Alloc: &AllocRequest{Principal: p[0], Amount: 1}}).Alloc.Lease
		renew := &Request{Renew: &RenewRequest{Lease: held}}
		k := 0
		var costs []float64
		for _, op := range []func(){
			func() {
				release.Release.Lease = must(alloc).Alloc.Lease
				must(release)
			},
			func() {
				k++
				report.Report.Available = float64(99 + k%2)
				must(report)
			},
			func() {
				revoke.Revoke.Ticket = must(share).Share.Ticket
				must(revoke)
			},
			func() { must(renew) },
		} {
			for i := 0; i < 10; i++ {
				op()
			}
			costs = append(costs, testing.AllocsPerRun(200, op))
		}
		must(&Request{Release: &ReleaseRequest{Lease: held}})
		return costs
	}
	routed := count(g.Handle, global)
	direct := count(g.Shard(0).Handle, local)
	for i, kind := range kinds {
		t.Logf("%s makes %v allocations through the router, %v through its shard", kind, routed[i], direct[i])
		allowed := direct[i]
		if i == 0 {
			allowed++ // the renamed sources
		}
		if routed[i] > allowed {
			t.Errorf("%s makes %v allocations through the router, %v through its shard: routing may add %v", kind, routed[i], direct[i], allowed-direct[i])
		}
	}
}

// TestReleaseAllocs pins a lone release through Handle at nothing: the
// lease leaves the table, the journal records it and the acknowledgement
// is shared.
func TestReleaseAllocs(t *testing.T) {
	s := blockServer(t, core.Config{ComponentLP: true}, 4)
	defer s.Close()
	s.SetLog(store.NewMemLog())
	const runs = 200
	leases := make([]int, 0, runs+1) // AllocsPerRun calls once more to warm up
	for len(leases) < cap(leases) {
		resp := s.Handle(&Request{Alloc: &AllocRequest{Principal: 9, Amount: 0.01}})
		if resp.Alloc == nil {
			t.Fatal(resp.Err)
		}
		leases = append(leases, resp.Alloc.Lease)
	}
	release := &Request{Release: &ReleaseRequest{}}
	got := testing.AllocsPerRun(runs, func() {
		release.Release.Lease, leases = leases[0], leases[1:]
		if resp := s.Handle(release); resp.Err != "" {
			t.Fatal(resp.Err)
		}
	})
	t.Logf("a release makes %v allocations", got)
	if got > 0 {
		t.Fatalf("a release makes %v allocations, want none", got)
	}
}

// TestRenewAllocs pins a renew under a lease TTL through Handle: the
// reply, envelope and payload in one; the new expiry and its journal
// record cost nothing.
func TestRenewAllocs(t *testing.T) {
	s := blockServer(t, core.Config{ComponentLP: true}, 4)
	defer s.Close()
	s.SetLog(store.NewMemLog())
	s.SetLeaseTTL(time.Hour)
	resp := s.Handle(&Request{Alloc: &AllocRequest{Principal: 9, Amount: 12.5}})
	if resp.Alloc == nil {
		t.Fatal(resp.Err)
	}
	renew := &Request{Renew: &RenewRequest{Lease: resp.Alloc.Lease}}
	got := testing.AllocsPerRun(200, func() {
		if resp := s.Handle(renew); resp.Renew == nil || resp.Renew.TTL != time.Hour {
			t.Fatalf("renew: %+v", resp)
		}
	})
	t.Logf("a renew makes %v allocations", got)
	if got > 1 {
		t.Fatalf("a renew makes %v allocations, want at most 1", got)
	}
}

// TestReapAllocs pins a reap pass at nothing: an expired lease leaves the
// table, its takes go back to the pool and its expiry is logged without a
// heap allocation, the log line boxing nothing for the discarding logger.
// The leases' tokens are past 255, where boxing an int allocates. A
// virtual clock expires one lease per pass, 200 passes in all.
func TestReapAllocs(t *testing.T) {
	const runs, ttl = 200, time.Hour
	s := blockServer(t, core.Config{ComponentLP: true}, 4)
	defer s.Close()
	start := time.Unix(0, 0)
	vc := vclock.NewVirtual(start)
	s.SetClock(vc)
	s.SetLeaseTTL(ttl)
	alloc := &Request{Alloc: &AllocRequest{Principal: 9, Amount: 0.01}}
	grant := func() int {
		resp := s.Handle(alloc)
		if resp.Alloc == nil {
			t.Fatal(resp.Err)
		}
		return resp.Alloc.Lease
	}
	release := &Request{Release: &ReleaseRequest{}}
	for release.Release.Lease < 255 {
		release.Release.Lease = grant()
		if resp := s.Handle(release); resp.Err != "" {
			t.Fatal(resp.Err)
		}
	}
	for i := 0; i <= runs; i++ { // AllocsPerRun calls once more to warm up
		vc.Set(start.Add(time.Duration(i) * time.Second))
		grant()
	}
	k := 0
	got := testing.AllocsPerRun(runs, func() {
		vc.Set(start.Add(ttl + time.Duration(k)*time.Second))
		k++
		if n := s.Reap(); n != 1 {
			t.Fatalf("reap pass %d reclaimed %d leases, want 1", k, n)
		}
	})
	t.Logf("reaping an expired lease makes %v allocations", got)
	if got > 0 {
		t.Fatalf("reaping an expired lease makes %v allocations, want none", got)
	}
}

// TestChurnCycleAllocs pins the write path beside the read path: one
// share → allocate → release → revoke → report cycle through Server.Handle
// with a journal attached, at the benchmark's churn128 shape (16 blocks of
// eight under the full formulation, a block's head sharing 0.005 down its
// chain). Each of the two writes patches the planner in place, writing
// over the values of the T row and the columns it moves, and the allocate
// between them builds its 129-variable LP into the workspace earlier plans
// left; six cycles in seven add an S entry and remove it, laying out a new
// S row each time. The cycle
// made 1 272 allocations when a build formatted a name per variable and row
// and made a map and a term slice per constraint, 72 when each closure
// delta made its affected set, seen set and meter on the heap and the
// share's log line boxed its arguments, 65 when every write dropped every
// skeleton and copied one header table per field, 31 while a grant was four
// allocations, 28 while every write derived a planner, cloning the
// closure's, flow and column tables and listing its changed rows, and 14
// while every write copied the T row and the columns it moved; it is 5. The
// bound is that 5 plus a fifth.
func TestChurnCycleAllocs(t *testing.T) {
	s := blockServer(t, core.Config{}, 16)
	defer s.Close()
	s.SetLog(store.NewMemLog())
	share := &Request{Share: &ShareRequest{From: 0, Fraction: 0.005}}
	alloc := &Request{Alloc: &AllocRequest{Principal: 0, Amount: 1.5}}
	release := &Request{Release: &ReleaseRequest{}}
	revoke := &Request{Revoke: &RevokeRequest{}}
	report := &Request{Report: &ReportRequest{Principal: 0, Available: 10.1}}
	n := 0
	cycle := func() {
		share.Share.To = 1 + n%7
		n++
		shared := s.Handle(share)
		if shared.Share == nil {
			t.Fatal(shared.Err)
		}
		leased := s.Handle(alloc)
		if leased.Alloc == nil {
			t.Fatal(leased.Err)
		}
		release.Release.Lease, revoke.Revoke.Ticket = leased.Alloc.Lease, shared.Share.Ticket
		for _, req := range []*Request{release, revoke, report} {
			if resp := s.Handle(req); resp.Err != "" {
				t.Fatal(resp.Err)
			}
		}
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	got := testing.AllocsPerRun(100, cycle)
	t.Logf("one churn cycle makes %v allocations", got)
	if got > 6 {
		t.Fatalf("one churn cycle makes %v allocations, want at most 6", got)
	}
}

// TestBooksHeapAllocs pins what the books keep live per principal: 4 096
// principals registered through Handle in blocks of eight, each block a
// chain of relative shares closed by an absolute one, and no plan run, so
// no planner holds anything. The names, the availability views, the name
// index, the per-issuer share lists and one shareInfo per share are all
// the server keeps; a second ticket table beside the share history shows
// here.
func TestBooksHeapAllocs(t *testing.T) {
	const n, block = 4096, 8
	names := nameList("p", n)
	// Two collections each side: the first leaves what sync.Pools held to
	// their victim caches, the second frees it.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewServer(core.Config{}, nil)
	for b := 0; b < n; b += block {
		for j := 0; j < block; j++ {
			registerAs(t, s, names[b+j], 10)
		}
		for j := 0; j < block; j++ {
			share := &ShareRequest{From: b + j, To: b + (j+1)%block, Fraction: 0.3}
			if j == block-1 {
				share.Fraction, share.Quantity = 0, 2
			}
			if resp := s.Handle(&Request{Share: share}); resp.Share == nil {
				t.Fatal(resp.Err)
			}
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	perPrincipal := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	runtime.KeepAlive(s)
	t.Logf("the books of %d principals in blocks of %d hold %.0f live bytes a principal", n, block, perPrincipal)
	if perPrincipal > 140 {
		t.Errorf("the books hold %.0f live bytes a principal, want at most 140", perPrincipal)
	}
}
