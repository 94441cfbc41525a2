package grm

import (
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

// TestShardIDCodecs pins the stateless identifier interleavings: every
// (shard, local) pair round-trips, and distinct pairs map to distinct
// globals.
func TestShardIDCodecs(t *testing.T) {
	for _, nshards := range []int{1, 2, 3, 4, 7} {
		g := NewSharded(nshards, core.Config{}, nil)
		defer g.Close()
		seenP := map[int]bool{}
		seenL := map[int]bool{}
		seenT := map[int]bool{}
		for shard := 0; shard < nshards; shard++ {
			for local := 0; local < 5; local++ {
				gp := g.globalPrincipal(shard, local)
				if s, l := g.splitPrincipal(gp); s != shard || l != local {
					t.Fatalf("n=%d principal (%d,%d) -> %d -> (%d,%d)", nshards, shard, local, gp, s, l)
				}
				if seenP[gp] {
					t.Fatalf("n=%d principal global %d collides", nshards, gp)
				}
				seenP[gp] = true

				gt := g.globalTicket(shard, local)
				if s, l := g.splitTicket(gt); s != shard || l != local {
					t.Fatalf("n=%d ticket (%d,%d) -> %d -> (%d,%d)", nshards, shard, local, gt, s, l)
				}
				if seenT[gt] {
					t.Fatalf("n=%d ticket global %d collides", nshards, gt)
				}
				seenT[gt] = true

				// Lease tokens start at 1 on each shard.
				lease := local + 1
				gl := g.globalLease(shard, lease)
				if gl < 1 {
					t.Fatalf("n=%d lease global %d not positive", nshards, gl)
				}
				if s, l := g.splitLease(gl); s != shard || l != lease {
					t.Fatalf("n=%d lease (%d,%d) -> %d -> (%d,%d)", nshards, shard, lease, gl, s, l)
				}
				if seenL[gl] {
					t.Fatalf("n=%d lease global %d collides", nshards, gl)
				}
				seenL[gl] = true
			}
		}
	}
}

// subtreeNames finds, for each shard, a subtree prefix that the name
// router maps there, so tests can place principals deterministically.
func subtreeNames(t *testing.T, g *Sharded) []string {
	t.Helper()
	names := make([]string, g.NumShards())
	found := 0
	for i := 0; found < g.NumShards() && i < 10_000; i++ {
		name := fmt.Sprintf("t%d", i)
		shard := g.shardOfName(name + "/probe")
		if names[shard] == "" {
			names[shard] = name
			found++
		}
	}
	if found < g.NumShards() {
		t.Fatalf("no subtree prefix found for every one of %d shards", g.NumShards())
	}
	return names
}

func mustHandle(t *testing.T, g *Sharded, req *Request) *Response {
	t.Helper()
	resp := g.Handle(req)
	if resp.Err != "" {
		t.Fatalf("handle: %s", resp.Err)
	}
	return resp
}

func TestShardedRoutingRoundTrip(t *testing.T) {
	const nshards = 3
	g := NewSharded(nshards, core.Config{}, nil)
	defer g.Close()
	trees := subtreeNames(t, g)

	// Two principals per subtree; the router must hand back global ids
	// that decode to the shard the name hashes to.
	type prin struct {
		name  string
		shard int
		id    int
	}
	var prins []prin
	for shard, tree := range trees {
		for k := 0; k < 2; k++ {
			name := fmt.Sprintf("%s/node%d", tree, k)
			resp := mustHandle(t, g, &Request{Register: &RegisterRequest{Name: name, Capacity: 100}})
			id := resp.Register.Principal
			if s, _ := g.splitPrincipal(id); s != shard {
				t.Fatalf("principal %q got global id %d on shard %d, want shard %d", name, id, s, shard)
			}
			prins = append(prins, prin{name: name, shard: shard, id: id})
		}
	}

	// Same-subtree agreements route; the ticket decodes to that shard.
	share := mustHandle(t, g, &Request{Share: &ShareRequest{From: prins[0].id, To: prins[1].id, Fraction: 0.5}})
	if s, _ := g.splitTicket(share.Share.Ticket); s != prins[0].shard {
		t.Fatalf("ticket %d decodes to shard %d, want %d", share.Share.Ticket, s, prins[0].shard)
	}

	// Reports land on the owning shard's books.
	mustHandle(t, g, &Request{Report: &ReportRequest{Principal: prins[2].id, Available: 40}})

	// An allocation's sources come back renamed into the global space,
	// and only principals of the requester's shard may appear.
	alloc := mustHandle(t, g, &Request{Alloc: &AllocRequest{Principal: prins[1].id, Amount: 120}})
	if s, _ := g.splitLease(alloc.Alloc.Lease); s != prins[1].shard {
		t.Fatalf("lease %d decodes to shard %d, want %d", alloc.Alloc.Lease, s, prins[1].shard)
	}
	var taken float64
	alloc.Alloc.Each(func(gp int, take float64) {
		taken += take
		if s, _ := g.splitPrincipal(gp); s != prins[1].shard {
			t.Errorf("take of %v from global principal %d (shard %d) crossed out of shard %d",
				take, gp, s, prins[1].shard)
		}
	})
	if taken != 120 {
		t.Fatalf("takes sum %v, want 120", taken)
	}

	// The lease releases through its global token.
	mustHandle(t, g, &Request{Release: &ReleaseRequest{Lease: alloc.Alloc.Lease}})
	// The ticket revokes through its global token.
	mustHandle(t, g, &Request{Revoke: &RevokeRequest{Ticket: share.Share.Ticket}})

	// Merged caps and peers index by global principal id.
	caps := mustHandle(t, g, &Request{Caps: &CapsRequest{}})
	peers := mustHandle(t, g, &Request{Peers: &PeersRequest{}})
	for _, p := range prins {
		if p.id >= len(caps.Caps.Available) {
			t.Fatalf("caps reply too short for global id %d", p.id)
		}
		if peers.Peers.Names[p.id] != p.name {
			t.Fatalf("peers[%d] = %q, want %q", p.id, peers.Peers.Names[p.id], p.name)
		}
		want := 100.0
		if p.id == prins[2].id {
			want = 40
		}
		if caps.Caps.Available[p.id] != want {
			t.Fatalf("avail[%d] = %v, want %v", p.id, caps.Caps.Available[p.id], want)
		}
	}

	// Unknown tokens are refused, not misrouted.
	for _, bad := range []*Request{
		{Report: &ReportRequest{Principal: g.globalPrincipal(0, 99), Available: 1}},
		{Report: &ReportRequest{Principal: -1, Available: 1}},
		{Release: &ReleaseRequest{Lease: 0}},
		{Renew: &RenewRequest{Lease: -5}},
		{Revoke: &RevokeRequest{Ticket: -1}},
	} {
		if resp := g.Handle(bad); resp.Err == "" {
			t.Fatalf("request %+v succeeded, want error", bad)
		}
	}
}

func TestShardedCrossShardShareRefused(t *testing.T) {
	g := NewSharded(2, core.Config{}, nil)
	defer g.Close()
	trees := subtreeNames(t, g)
	a := mustHandle(t, g, &Request{Register: &RegisterRequest{Name: trees[0] + "/a", Capacity: 10}}).Register.Principal
	b := mustHandle(t, g, &Request{Register: &RegisterRequest{Name: trees[1] + "/b", Capacity: 10}}).Register.Principal
	resp := g.Handle(&Request{Share: &ShareRequest{From: a, To: b, Fraction: 0.5}})
	if resp.Err == "" {
		t.Fatal("cross-shard share succeeded")
	}
	if !strings.Contains(resp.Err, "different shards") {
		t.Fatalf("cross-shard share error %q does not name the routing rule", resp.Err)
	}
}

// driveShardedWorkload exercises every shard: registrations, intra-shard
// agreements, reports, allocations, and a release. It returns the global
// lease tokens still outstanding.
func driveShardedWorkload(t *testing.T, g *Sharded) []int {
	t.Helper()
	trees := subtreeNames(t, g)
	var ids []int
	for shard, tree := range trees {
		for k := 0; k < 3; k++ {
			resp := mustHandle(t, g, &Request{Register: &RegisterRequest{
				Name:     fmt.Sprintf("%s/n%d", tree, k),
				Capacity: float64(50 + 10*shard + k),
			}})
			ids = append(ids, resp.Register.Principal)
		}
	}
	// Per shard: one relative and one absolute agreement, a report, two
	// allocations, one release.
	var leases []int
	for shard := range trees {
		base := shard * 3
		mustHandle(t, g, &Request{Share: &ShareRequest{From: ids[base+1], To: ids[base], Fraction: 0.5}})
		mustHandle(t, g, &Request{Share: &ShareRequest{From: ids[base+2], To: ids[base], Quantity: 10}})
		mustHandle(t, g, &Request{Report: &ReportRequest{Principal: ids[base+1], Available: 30}})
		l1 := mustHandle(t, g, &Request{Alloc: &AllocRequest{Principal: ids[base], Amount: 60}}).Alloc.Lease
		l2 := mustHandle(t, g, &Request{Alloc: &AllocRequest{Principal: ids[base+2], Amount: 5}}).Alloc.Lease
		mustHandle(t, g, &Request{Release: &ReleaseRequest{Lease: l2}})
		leases = append(leases, l1)
	}
	return leases
}

func shardedStatusJSON(t *testing.T, g *Sharded) string {
	t.Helper()
	st, err := g.Status()
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	return recoverableJSON(t, st)
}

// TestShardedPerShardWALRecovery proves the per-shard logs carry the
// whole cluster: a restarted sharded GRM replays each shard's own log
// and reproduces the merged status byte for byte.
func TestShardedPerShardWALRecovery(t *testing.T) {
	const nshards = 3
	logs := make([]store.Log, nshards)
	for i := range logs {
		logs[i] = store.NewMemLog()
	}
	g := NewSharded(nshards, core.Config{}, nil)
	if err := g.SetLogs(logs); err != nil {
		t.Fatal(err)
	}
	leases := driveShardedWorkload(t, g)
	want := shardedStatusJSON(t, g)

	// Every shard journaled its own workload into its own log.
	for i, l := range logs {
		if l.(*store.MemLog).Len() == 0 {
			t.Fatalf("shard %d log is empty", i)
		}
	}

	r := NewSharded(nshards, core.Config{}, nil)
	defer r.Close()
	if err := r.RecoverShards(logs); err != nil {
		t.Fatalf("RecoverShards: %v", err)
	}
	if got := shardedStatusJSON(t, r); got != want {
		t.Fatalf("recovered status\n %s\nwant\n %s", got, want)
	}
	for shard := 0; shard < nshards; shard++ {
		leasesEqual(t, g.Shard(shard), r.Shard(shard))
	}
	// The recovered router keeps serving: the surviving global leases
	// release cleanly.
	for _, lease := range leases {
		mustHandle(t, r, &Request{Release: &ReleaseRequest{Lease: lease}})
	}
	g.Close()
}

// TestShardedSingleShardRestart proves shards recover independently: one
// shard's log replayed into a fresh single server reproduces exactly
// that shard's books, with the other shards' logs untouched.
func TestShardedSingleShardRestart(t *testing.T) {
	const nshards = 3
	logs := make([]store.Log, nshards)
	for i := range logs {
		logs[i] = store.NewMemLog()
	}
	g := NewSharded(nshards, core.Config{}, nil)
	defer g.Close()
	if err := g.SetLogs(logs); err != nil {
		t.Fatal(err)
	}
	driveShardedWorkload(t, g)

	for shard := 0; shard < nshards; shard++ {
		r := NewServer(core.Config{}, nil)
		if err := r.Recover(logs[shard]); err != nil {
			t.Fatalf("shard %d: Recover: %v", shard, err)
		}
		if got, want := statusJSON(t, r), statusJSON(t, g.Shard(shard)); got != want {
			t.Fatalf("shard %d recovered status\n %s\nwant\n %s", shard, got, want)
		}
		leasesEqual(t, g.Shard(shard), r)
	}
}

// TestShardedCompact folds every shard's log into one snapshot each and
// recovers from the compacted logs.
func TestShardedCompact(t *testing.T) {
	const nshards = 2
	logs := make([]store.Log, nshards)
	for i := range logs {
		logs[i] = store.NewMemLog()
	}
	g := NewSharded(nshards, core.Config{}, nil)
	defer g.Close()
	if err := g.SetLogs(logs); err != nil {
		t.Fatal(err)
	}
	driveShardedWorkload(t, g)
	if err := g.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	for i, l := range logs {
		if n := l.(*store.MemLog).Len(); n != 1 {
			t.Fatalf("shard %d compacted log holds %d records, want 1", i, n)
		}
	}
	want := shardedStatusJSON(t, g)
	r := NewSharded(nshards, core.Config{}, nil)
	defer r.Close()
	if err := r.RecoverShards(logs); err != nil {
		t.Fatalf("RecoverShards: %v", err)
	}
	if got := shardedStatusJSON(t, r); got != want {
		t.Fatalf("recovered status\n %s\nwant\n %s", got, want)
	}
}

// TestShardedWireEndToEnd drives a sharded GRM through the real wire:
// LRM clients in different subtrees register, report, allocate, and
// release over a TCP listener fronting the router.
func TestShardedWireEndToEnd(t *testing.T) {
	g := NewSharded(2, core.Config{}, nil)
	defer g.Close()
	trees := subtreeNames(t, g)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); g.Serve(l) }()

	var lrms []*LRM
	for shard, tree := range trees {
		lrm, err := Dial(l.Addr().String(), tree+"/edge", 75)
		if err != nil {
			t.Fatalf("dial shard %d: %v", shard, err)
		}
		defer lrm.Close()
		if s, _ := g.splitPrincipal(lrm.Principal()); s != shard {
			t.Fatalf("principal %d landed on shard %d, want %d", lrm.Principal(), s, shard)
		}
		lrms = append(lrms, lrm)
	}
	for _, lrm := range lrms {
		if err := lrm.Report(60); err != nil {
			t.Fatalf("report: %v", err)
		}
		rep, err := lrm.Allocate(25)
		if err != nil {
			t.Fatalf("allocate: %v", err)
		}
		if err := lrm.Release(rep.Lease); err != nil {
			t.Fatalf("release: %v", err)
		}
	}
	st, err := g.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Leases != 0 || len(st.Principals) != 2 {
		t.Fatalf("status after wire workload: %d leases, %d principals", st.Leases, len(st.Principals))
	}
	g.Close()
	<-done
}

// TestShardedReplyRemapMatchesExpansion pins the sharded allocation reply
// against what the router used to build: the shard's takes expanded into
// a vector over the whole global id space, other shards' columns zero.
// Renaming the sources must say the same thing in pairs, and must share
// the shard's amounts rather than copy them.
func TestShardedReplyRemapMatchesExpansion(t *testing.T) {
	const nshards = 3
	g := NewSharded(nshards, core.Config{}, nil)
	defer g.Close()
	trees := subtreeNames(t, g)
	const shard = 1
	var ids []int
	for k := 0; k < 4; k++ {
		resp := mustHandle(t, g, &Request{Register: &RegisterRequest{Name: fmt.Sprintf("%s/node%d", trees[shard], k), Capacity: 100}})
		ids = append(ids, resp.Register.Principal)
	}
	// Nodes 1 and 3 share with node 0; node 2 does not, so a request beyond
	// node 0's own capacity leaves a hole in the sources.
	mustHandle(t, g, &Request{Share: &ShareRequest{From: ids[1], To: ids[0], Fraction: 0.5}})
	mustHandle(t, g, &Request{Share: &ShareRequest{From: ids[3], To: ids[0], Fraction: 0.5}})

	var local *AllocReply
	g.Shard(shard).SetTap(func(ev TapEvent) {
		if ev.Resp.Alloc != nil {
			copied := *ev.Resp.Alloc // a tap may not retain the reply: the router renames it
			local = &copied
		}
	})
	reply := mustHandle(t, g, &Request{Alloc: &AllocRequest{Principal: ids[0], Amount: 160}}).Alloc
	if local == nil {
		t.Fatal("the shard's own reply was not observed")
	}
	if len(local.Sources) != 3 {
		t.Fatalf("shard reply takes from %v, want three of its four principals", local.Sources)
	}

	// The expansion the router used to perform on the shard's dense vector.
	dense := local.Dense(4)
	want := make([]float64, g.globalPrincipal(shard, len(dense)-1)+1)
	for l, take := range dense {
		want[g.globalPrincipal(shard, l)] = take
	}
	if got := reply.Dense(len(want)); !reflect.DeepEqual(got, want) {
		t.Fatalf("remapped reply expands to %v, the old expansion was %v", got, want)
	}
	for k, p := range reply.Sources {
		if s, l := g.splitPrincipal(p); s != shard || l != local.Sources[k] {
			t.Fatalf("source %d is global %d = (shard %d, local %d), want (shard %d, local %d)", k, p, s, l, shard, local.Sources[k])
		}
		if k > 0 && p <= reply.Sources[k-1] {
			t.Fatalf("remapped sources %v are not ascending", reply.Sources)
		}
	}
	if &reply.Takes[0] != &local.Takes[0] {
		t.Fatal("the router copied the amounts; it should share the shard's")
	}
}

// TestShardedStatusMergeOrder: shards of uneven size leave holes in the
// global id space, and the merged status must still list exactly the
// registered principals in ascending global id, each under its own name.
func TestShardedStatusMergeOrder(t *testing.T) {
	const nshards = 3
	g := NewSharded(nshards, core.Config{}, nil)
	defer g.Close()
	trees := subtreeNames(t, g)
	want := map[int]string{}
	for shard, population := range []int{5, 1, 3} {
		for k := 0; k < population; k++ {
			name := fmt.Sprintf("%s/node%d", trees[shard], k)
			resp := mustHandle(t, g, &Request{Register: &RegisterRequest{Name: name, Capacity: float64(10*shard + k)}})
			want[resp.Register.Principal] = name
		}
	}
	st, err := g.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Principals) != len(want) {
		t.Fatalf("status lists %d principals, registered %d", len(st.Principals), len(want))
	}
	for i, ps := range st.Principals {
		if i > 0 && ps.Principal <= st.Principals[i-1].Principal {
			t.Fatalf("row %d has global id %d after %d", i, ps.Principal, st.Principals[i-1].Principal)
		}
		if want[ps.Principal] != ps.Name {
			t.Fatalf("global id %d is listed as %q, registered as %q", ps.Principal, ps.Name, want[ps.Principal])
		}
		shard, local := g.splitPrincipal(ps.Principal)
		if ps.Reported != float64(10*shard+local) {
			t.Fatalf("global id %d carries capacity %g, want shard %d's node %d", ps.Principal, ps.Reported, shard, local)
		}
	}
	empty := NewSharded(nshards, core.Config{}, nil)
	defer empty.Close()
	if st, err := empty.Status(); err != nil || len(st.Principals) != 0 {
		t.Fatalf("empty router: %d principals, err %v", len(st.Principals), err)
	}
}
