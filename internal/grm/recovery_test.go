package grm

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/vclock"
	"repro/internal/wirefmt"
)

// driveWorkload runs a representative mix of transitions through the
// dispatch table: registrations, agreements, reports, allocations, a
// release, a revocation, and a renewal. It returns the tokens of the
// leases still outstanding.
func driveWorkload(t *testing.T, s *Server) []int {
	t.Helper()
	must := func(resp *Response) *Response {
		t.Helper()
		if resp.Err != "" {
			t.Fatalf("dispatch: %s", resp.Err)
		}
		return resp
	}
	for _, n := range []struct {
		name string
		cap  float64
	}{{"A", 100}, {"B", 80}, {"C", 60}} {
		must(s.Handle(&Request{Register: &RegisterRequest{Name: n.name, Capacity: n.cap}}))
	}
	must(s.Handle(&Request{Share: &ShareRequest{From: 1, To: 0, Fraction: 0.5}}))
	must(s.Handle(&Request{Share: &ShareRequest{From: 2, To: 0, Quantity: 20}}))
	tick := must(s.Handle(&Request{Share: &ShareRequest{From: 0, To: 2, Fraction: 0.25}})).Share.Ticket
	must(s.Handle(&Request{Report: &ReportRequest{Principal: 1, Available: 70}}))

	var leases []int
	for _, a := range []struct {
		p   int
		amt float64
	}{{0, 120}, {2, 30}, {1, 15}} {
		resp := must(s.Handle(&Request{Alloc: &AllocRequest{Principal: a.p, Amount: a.amt}}))
		leases = append(leases, resp.Alloc.Lease)
	}
	must(s.Handle(&Request{Release: &ReleaseRequest{Lease: leases[1]}}))
	leases = append(leases[:1], leases[2:]...)
	must(s.Handle(&Request{Revoke: &RevokeRequest{Ticket: tick}}))
	must(s.Handle(&Request{Report: &ReportRequest{Principal: 0, Available: 90}}))
	if s.leaseTTL > 0 {
		must(s.Handle(&Request{Renew: &RenewRequest{Lease: leases[0]}}))
	}
	return leases
}

// statusJSON renders a server's status for byte-for-byte comparison.
func statusJSON(t *testing.T, s *Server) string {
	t.Helper()
	st, err := s.Status()
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	return recoverableJSON(t, st)
}

// recoverableJSON renders the part of a status that recovery restores:
// the pipeline meters count what this process served, which a freshly
// recovered server has not, so they are cleared first.
func recoverableJSON(t *testing.T, st *Status) string {
	t.Helper()
	st.Batches, st.BatchedRequests, st.MaxBatch, st.BatchPlanNanos, st.QueueDepth = 0, 0, 0, 0, 0
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// leasesEqual asserts the recovered server holds the same leases, with
// the same takes and expiry stamps, as the original.
func leasesEqual(t *testing.T, want, got *Server) {
	t.Helper()
	want.mu.Lock()
	got.mu.Lock()
	defer want.mu.Unlock()
	defer got.mu.Unlock()
	if len(want.leases) != len(got.leases) {
		t.Fatalf("recovered %d leases, want %d", len(got.leases), len(want.leases))
	}
	for token, wle := range want.leases {
		gle, ok := got.leases[token]
		if !ok {
			t.Fatalf("lease %d missing after recovery", token)
		}
		if !reflect.DeepEqual(gle.sources, wle.sources) || !reflect.DeepEqual(gle.takes, wle.takes) {
			t.Fatalf("lease %d takes %v from %v, want %v from %v", token, gle.takes, gle.sources, wle.takes, wle.sources)
		}
		if !gle.expires.Equal(wle.expires) {
			t.Fatalf("lease %d expires %v, want %v", token, gle.expires, wle.expires)
		}
		if gle.parentLease != wle.parentLease {
			t.Fatalf("lease %d parent lease %d, want %d", token, gle.parentLease, wle.parentLease)
		}
	}
	if got.nextLease != want.nextLease {
		t.Fatalf("recovered nextLease %d, want %d", got.nextLease, want.nextLease)
	}
}

func TestRecoverReplaysLog(t *testing.T) {
	wal := store.NewMemLog()
	s := NewServer(core.Config{}, nil)
	s.SetLog(wal)
	driveWorkload(t, s)
	want := statusJSON(t, s)

	r := NewServer(core.Config{}, nil)
	if err := r.Recover(wal); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := statusJSON(t, r); got != want {
		t.Fatalf("recovered status\n %s\nwant\n %s", got, want)
	}
	leasesEqual(t, s, r)

	// The recovered server keeps serving: the next lease token continues
	// the sequence instead of reusing a replayed one.
	resp := r.Handle(&Request{Alloc: &AllocRequest{Principal: 1, Amount: 5}})
	if resp.Err != "" {
		t.Fatalf("alloc after recovery: %s", resp.Err)
	}
	s.mu.Lock()
	wantNext := s.nextLease
	s.mu.Unlock()
	if resp.Alloc.Lease != wantNext {
		t.Fatalf("post-recovery lease %d, want %d", resp.Alloc.Lease, wantNext)
	}
}

func TestRecoverFromCompactedLog(t *testing.T) {
	wal := store.NewMemLog()
	s := NewServer(core.Config{}, nil)
	s.SetLog(wal)
	leases := driveWorkload(t, s)
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if n := wal.Len(); n != 1 {
		t.Fatalf("compacted log holds %d records, want 1", n)
	}
	// Transitions after the compaction land on the tail and must replay
	// on top of the snapshot.
	if resp := s.Handle(&Request{Release: &ReleaseRequest{Lease: leases[0]}}); resp.Err != "" {
		t.Fatalf("release: %s", resp.Err)
	}
	if resp := s.Handle(&Request{Share: &ShareRequest{From: 0, To: 1, Quantity: 5}}); resp.Err != "" {
		t.Fatalf("share: %s", resp.Err)
	}
	want := statusJSON(t, s)

	r := NewServer(core.Config{}, nil)
	if err := r.Recover(wal); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := statusJSON(t, r); got != want {
		t.Fatalf("recovered status\n %s\nwant\n %s", got, want)
	}
	leasesEqual(t, s, r)
}

func TestRecoverFileLog(t *testing.T) {
	dir := t.TempDir()
	wal, err := store.OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(core.Config{}, nil)
	s.SetLog(wal)
	driveWorkload(t, s)
	want := statusJSON(t, s)
	if err := s.Close(); err != nil { // flushes the WAL
		t.Fatalf("Close: %v", err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := store.OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	r := NewServer(core.Config{}, nil)
	if err := r.Recover(reopened); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := statusJSON(t, r); got != want {
		t.Fatalf("recovered status\n %s\nwant\n %s", got, want)
	}
	leasesEqual(t, s, r)
}

func TestRecoverLeaseExpiry(t *testing.T) {
	vc := vclock.NewVirtual(time.Unix(1_000_000_000, 0))
	wal := store.NewMemLog()
	s := NewServer(core.Config{}, nil)
	s.SetClock(vc)
	s.SetLeaseTTL(time.Minute)
	s.SetLog(wal)
	driveWorkload(t, s)

	r := NewServer(core.Config{}, nil)
	r.SetClock(vc)
	r.SetLeaseTTL(time.Minute)
	if err := r.Recover(wal); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	leasesEqual(t, s, r)
	// The recovered expiry stamps still fire on the shared clock.
	vc.Advance(2 * time.Minute)
	if reaped := r.Reap(); reaped != 2 {
		t.Fatalf("reaped %d recovered leases, want 2", reaped)
	}
}

func TestRecoverRequiresPristineServer(t *testing.T) {
	wal := store.NewMemLog()
	s := NewServer(core.Config{}, nil)
	s.SetLog(wal)
	driveWorkload(t, s)

	if err := s.Recover(store.NewMemLog()); err == nil {
		t.Fatal("Recover on a server with a log attached succeeded")
	}
	used := NewServer(core.Config{}, nil)
	if resp := used.Handle(&Request{Register: &RegisterRequest{Name: "X", Capacity: 1}}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	if err := used.Recover(wal); err == nil {
		t.Fatal("Recover on a server with registered principals succeeded")
	}
}

func TestRecoverSurfacesUnresolvedBorrows(t *testing.T) {
	// A lease that carried a federation borrow has no live parent link
	// after a restart; recovery must keep the parent lease token visible.
	wal := store.NewMemLog()
	recs := []*store.Record{
		{Seq: 1, Kind: store.KindRegister, Principal: 0, Name: "A", Capacity: 10},
		{Seq: 2, Kind: store.KindBorrow, Principal: 0, Amount: 5, ParentLease: 7},
		{Seq: 3, Kind: store.KindAlloc, Principal: 0, Amount: 15,
			Takes: []float64{10}, Lease: 1, ParentLease: 7},
	}
	for _, rec := range recs {
		if err := wal.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	r := NewServer(core.Config{}, nil)
	if err := r.Recover(wal); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	borrows := r.UnresolvedBorrows()
	if len(borrows) != 1 || borrows[0] != 7 {
		t.Fatalf("UnresolvedBorrows = %v, want [7]", borrows)
	}
	// Releasing the recovered lease credits locally and does not attempt
	// a parent round trip (there is no link to make one through).
	if resp := r.Handle(&Request{Release: &ReleaseRequest{Lease: 1}}); resp.Err != "" {
		t.Fatalf("release: %s", resp.Err)
	}
}

// TestRecoverLegacyDenseLog replays testdata/legacy_wal, a log directory
// written by the commit before takes became pairs: a compacted snapshot
// holding one lease and a tail holding another, every takes vector dense
// and no record with a "src" key. Recovery must read it, and must land on
// the books its pair-form twin — the same records with each takes vector
// rewritten as (src, takes) — lands on: the same status after recovery,
// and the same status again once both held leases are released, which is
// where a wrong source would credit the wrong principal.
func TestRecoverLegacyDenseLog(t *testing.T) {
	dir := t.TempDir() // OpenFileLog opens for append; keep testdata read-only
	twin := store.NewMemLog()
	pairForms := 0
	for _, name := range []string{"snapshot.wal", "wal.log"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "legacy_wal", name))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(raw, []byte(`"src"`)) || !bytes.Contains(raw, []byte(`"takes":[`)) {
			t.Fatalf("%s is not a legacy log: want dense takes and no src", name)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, valid, err := store.DecodeRecords(bytes.NewReader(raw))
		if err != nil || valid != int64(len(raw)) {
			t.Fatalf("%s: %d of %d bytes decode (%v)", name, valid, len(raw), err)
		}
		for _, rec := range recs {
			if rec.Kind == store.KindAlloc {
				rec.Sources, rec.Takes = store.SparseTakes(nil, rec.Takes)
				pairForms++
			}
			if rec.State != nil {
				for i := range rec.State.Leases {
					ls := &rec.State.Leases[i]
					ls.Sources, ls.Takes = store.SparseTakes(nil, ls.Takes)
					pairForms++
				}
			}
			if err := twin.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if pairForms != 3 {
		t.Fatalf("rewrote %d takes vectors, the fixture holds 3", pairForms)
	}

	legacyLog, err := store.OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	legacy := NewServer(core.Config{}, nil)
	if err := legacy.Recover(legacyLog); err != nil {
		t.Fatalf("legacy log: %v", err)
	}
	defer legacy.Close()
	defer legacyLog.Close()
	pairs := NewServer(core.Config{}, nil)
	if err := pairs.Recover(twin); err != nil {
		t.Fatalf("pair-form twin: %v", err)
	}
	defer pairs.Close()

	if l, p := statusJSON(t, legacy), statusJSON(t, pairs); l != p {
		t.Fatalf("recovered books differ\nlegacy: %s\npairs:  %s", l, p)
	}
	leasesEqual(t, pairs, legacy)
	st, err := legacy.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Leases != 2 || st.Agreements != 3 {
		t.Fatalf("recovered %d leases and %d agreements, the fixture holds 2 and 3", st.Leases, st.Agreements)
	}
	// Lease 1 took [100 15 0 15 0 0], lease 3 [0 0 120 0 20 0]; node1
	// reported 60 in between, node5 reported 90 and got its 40 back.
	wantAvail := []float64{0, 60, 0, 115, 120, 90}
	for i, ps := range st.Principals {
		if ps.Available != wantAvail[i] {
			t.Fatalf("recovered availability %v at principal %d, want %v", ps.Available, i, wantAvail[i])
		}
	}

	for _, lease := range []int{1, 3} {
		for _, srv := range []*Server{legacy, pairs} {
			if resp := srv.Handle(&Request{Release: &ReleaseRequest{Lease: lease}}); resp.Err != "" {
				t.Fatalf("release %d: %s", lease, resp.Err)
			}
		}
	}
	if l, p := statusJSON(t, legacy), statusJSON(t, pairs); l != p {
		t.Fatalf("books differ after the releases\nlegacy: %s\npairs:  %s", l, p)
	}
	if st, err = legacy.Status(); err != nil {
		t.Fatal(err)
	}
	wantAvail = []float64{100, 75, 120, 130, 140, 90}
	for i, ps := range st.Principals {
		if ps.Available != wantAvail[i] {
			t.Fatalf("availability %v at principal %d after the releases, want %v", ps.Available, i, wantAvail[i])
		}
	}
}

// jsonFrame frames rec the way logs were written before the binary record
// encoding: the Record as encoding/json text inside the CRC frame. Only
// such a log can hold pairs that are out of order or do not line up; the
// binary writer refuses them and its reader cannot produce them.
func jsonFrame(t *testing.T, rec *store.Record) []byte {
	t.Helper()
	payload, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	frame := append(wirefmt.BeginFrame(nil), payload...)
	if err := wirefmt.EndFrame(frame, 0); err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestRecoverRejectsMalformedTakes: the log is input. Pairs that are out
// of order, name a principal the replay has not registered, or do not
// line up one source to one take must stop recovery, not index the books.
func TestRecoverRejectsMalformedTakes(t *testing.T) {
	cases := map[string]store.Record{
		"out of order":         {Sources: []int{1, 0}, Takes: []float64{1, 1}},
		"repeated source":      {Sources: []int{1, 1}, Takes: []float64{1, 1}},
		"unknown principal":    {Sources: []int{2}, Takes: []float64{1}},
		"negative principal":   {Sources: []int{-1}, Takes: []float64{1}},
		"more takes":           {Sources: []int{0}, Takes: []float64{1, 1}},
		"more sources":         {Sources: []int{0, 1}, Takes: []float64{1}},
		"dense beyond the set": {Takes: []float64{1, 0, 1}},
	}
	regs := []*store.Record{
		{Seq: 1, Kind: store.KindRegister, Principal: 0, Name: "A", Capacity: 10},
		{Seq: 2, Kind: store.KindRegister, Principal: 1, Name: "B", Capacity: 10},
	}
	for name, rec := range cases {
		rec.Seq, rec.Kind, rec.Lease = 3, store.KindAlloc, 1
		var raw []byte
		for _, r := range append(regs[:2:2], &rec) {
			raw = append(raw, jsonFrame(t, r)...)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		wal, err := store.OpenFileLog(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := NewServer(core.Config{}, nil).Recover(wal); err == nil {
			t.Errorf("%s: recovery accepted takes %v from %v", name, rec.Takes, rec.Sources)
		}
		wal.Close()

		// The binary log refuses to write most of these; what it does
		// hold (a source nobody registered) recovery must still refuse.
		mem := store.NewMemLog()
		for _, r := range regs {
			if err := mem.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := mem.Append(&rec); err != nil {
			continue
		}
		if err := NewServer(core.Config{}, nil).Recover(mem); err == nil {
			t.Errorf("%s: recovery accepted binary takes %v from %v", name, rec.Takes, rec.Sources)
		}
	}
}

// TestJournalTakesArePairs: an allocation is journaled as the pairs its
// reply carries however many of the principals it draws on, in the tail
// and in a compacted snapshot alike, and recovery lands on the same books
// from either.
func TestJournalTakesArePairs(t *testing.T) {
	wal := store.NewMemLog()
	s := NewServer(core.Config{}, nil)
	s.SetLog(wal)
	must := func(resp *Response) *Response {
		t.Helper()
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
		return resp
	}
	for i := 0; i < 4; i++ {
		must(s.Handle(&Request{Register: &RegisterRequest{Name: string(rune('A' + i)), Capacity: 100}}))
	}
	must(s.Handle(&Request{Share: &ShareRequest{From: 1, To: 0, Fraction: 0.5}}))
	few := must(s.Handle(&Request{Alloc: &AllocRequest{Principal: 0, Amount: 120}})).Alloc // A and its one sharer
	must(s.Handle(&Request{Share: &ShareRequest{From: 2, To: 0, Fraction: 0.5}}))
	must(s.Handle(&Request{Share: &ShareRequest{From: 3, To: 0, Fraction: 0.5}}))
	most := must(s.Handle(&Request{Alloc: &AllocRequest{Principal: 0, Amount: 90}})).Alloc // A is empty, all three sharers give
	if len(few.Sources) != 2 || len(most.Sources) != 3 {
		t.Fatalf("replies take from %v and %v, want two and three sources", few.Sources, most.Sources)
	}

	check := func(what string, lease int, sources []int, takes []float64) {
		t.Helper()
		for _, reply := range []*AllocReply{few, most} {
			if lease == reply.Lease && (!reflect.DeepEqual(sources, reply.Sources) || !reflect.DeepEqual(takes, reply.Takes)) {
				t.Errorf("%s: lease %d journaled as %v from %v, want the reply's %v from %v", what, lease, takes, sources, reply.Takes, reply.Sources)
			}
		}
	}
	wal.Replay(func(rec *store.Record) error {
		if rec.Kind == store.KindAlloc {
			check("tail", rec.Lease, rec.Sources, rec.Takes)
		}
		return nil
	})
	before := statusJSON(t, s)
	fromTail := NewServer(core.Config{}, nil)
	tail := store.NewMemLog()
	wal.Replay(func(rec *store.Record) error { return tail.Append(rec) })
	if err := fromTail.Recover(tail); err != nil {
		t.Fatal(err)
	}
	if got := statusJSON(t, fromTail); got != before {
		t.Fatalf("recovered from the tail:\n%s\nwant\n%s", got, before)
	}

	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	wal.Replay(func(rec *store.Record) error {
		if rec.State == nil {
			t.Errorf("compacted log holds a %v record", rec.Kind)
			return nil
		}
		for _, ls := range rec.State.Leases {
			check("snapshot", ls.Token, ls.Sources, ls.Takes)
		}
		return nil
	})
	fromSnapshot := NewServer(core.Config{}, nil)
	if err := fromSnapshot.Recover(wal); err != nil {
		t.Fatal(err)
	}
	if got := statusJSON(t, fromSnapshot); got != before {
		t.Fatalf("recovered from the snapshot:\n%s\nwant\n%s", got, before)
	}
	leasesEqual(t, s, fromSnapshot)
}

// TestRecoverJSONLogThroughAppendAndCompact replays testdata/json_wal, a
// log directory written by the last build that journaled JSON: a snapshot
// (declared agreements, a revoked share, one lease in pair form and one
// dense) and a tail holding both forms again, a renewal and a release.
// This build must read it, append to it in binary, compact it, and land
// on identical books after every reopen.
func TestRecoverJSONLogThroughAppendAndCompact(t *testing.T) {
	dir := t.TempDir() // OpenFileLog opens for append; keep testdata read-only
	for _, name := range []string{"snapshot.wal", "wal.log"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "json_wal", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(raw, []byte(`"src":[`)) || !bytes.Contains(raw, []byte(`"takes":[0,0,0,`)) {
			t.Fatalf("%s is not a JSON log holding pair-form and dense takes", name)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	vc := vclock.NewVirtual(time.Unix(1_000_000_060, 0)) // where the writer's clock stood
	reopen := func() (*Server, *store.FileLog) {
		t.Helper()
		wal, err := store.OpenFileLog(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := NewServer(core.Config{}, nil)
		s.SetClock(vc)
		s.SetLeaseTTL(time.Hour)
		if err := s.Recover(wal); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		return s, wal
	}
	must := func(resp *Response) *Response {
		t.Helper()
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
		return resp
	}

	live, wal := reopen()
	defer live.Close()
	st, err := live.Status()
	if err != nil {
		t.Fatal(err)
	}
	// What the writer's Status read when it stopped.
	wantAvail := []float64{98.88888888888891, 56.111111111111086, 0, 2.842170943040401e-14, 66.66666666666666,
		106.66666666666666, 116.66666666666666, 140, 150, 0, 170, 180, 23.25}
	if st.Leases != 4 || st.Agreements != 4 || len(st.Principals) != len(wantAvail) {
		t.Fatalf("recovered %d leases, %d agreements, %d principals; the fixture holds 4, 4 and %d", st.Leases, st.Agreements, len(st.Principals), len(wantAvail))
	}
	for i, ps := range st.Principals {
		if ps.Available != wantAvail[i] {
			t.Fatalf("recovered availability %v at principal %d, want %v", ps.Available, i, wantAvail[i])
		}
	}

	// Append in binary behind the JSON tail: a report, an allocation, a
	// renewal of the snapshot's pair-form lease, a release of the tail's
	// dense one, a revocation.
	jsonTail, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	must(live.Handle(&Request{Report: &ReportRequest{Principal: 10, Available: 165}}))
	must(live.Handle(&Request{Alloc: &AllocRequest{Principal: 10, Amount: 20}}))
	must(live.Handle(&Request{Renew: &RenewRequest{Lease: 1}}))
	must(live.Handle(&Request{Release: &ReleaseRequest{Lease: 5}}))
	must(live.Handle(&Request{Revoke: &RevokeRequest{Ticket: 4}}))
	want := statusJSON(t, live)
	live.SetLog(nil) // it lives on as the reference; the directory goes to its successors
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	mixed, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(mixed, jsonTail) || len(mixed) == len(jsonTail) || bytes.Contains(mixed[len(jsonTail):], []byte(`"seq"`)) {
		t.Fatalf("WAL is not the JSON tail followed by binary frames")
	}

	fromMixed, wal := reopen()
	defer fromMixed.Close()
	if got := statusJSON(t, fromMixed); got != want {
		t.Fatalf("recovered from the mixed log:\n%s\nwant\n%s", got, want)
	}
	leasesEqual(t, live, fromMixed)
	if err := fromMixed.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := statusJSON(t, fromMixed); got != want {
		t.Fatalf("books moved under Compact:\n%s\nwant\n%s", got, want)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"snapshot.wal", "wal.log"} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(raw, []byte(`"seq"`)) {
			t.Errorf("%s still holds JSON after Compact", name)
		}
	}

	fromSnapshot, wal := reopen()
	defer fromSnapshot.Close()
	defer wal.Close()
	if got := statusJSON(t, fromSnapshot); got != want {
		t.Fatalf("recovered from the compacted log:\n%s\nwant\n%s", got, want)
	}
	leasesEqual(t, live, fromSnapshot)
	// Releasing everything is where a wrong source would credit the wrong
	// principal: the never-restarted server and the twice-recovered one
	// must still agree.
	for _, lease := range []int{1, 4, 6, 7} {
		for _, srv := range []*Server{live, fromSnapshot} {
			must(srv.Handle(&Request{Release: &ReleaseRequest{Lease: lease}}))
		}
	}
	if l, r := statusJSON(t, live), statusJSON(t, fromSnapshot); l != r {
		t.Fatalf("books differ after the releases\nlive:      %s\nrecovered: %s", l, r)
	}
}

// refusingLog fails every Append while refuse is set.
type refusingLog struct {
	store.Log
	refuse bool
}

func (l *refusingLog) Append(rec *store.Record) error {
	if l.refuse {
		return errors.New("no space left on device")
	}
	return l.Log.Append(rec)
}

// TestStatusCountsWalAppendErrors: a transition the log failed to record
// is served all the same and shows up in Status, summed across shards.
func TestStatusCountsWalAppendErrors(t *testing.T) {
	logs := []*refusingLog{{Log: store.NewMemLog()}, {Log: store.NewMemLog()}}
	g := NewSharded(2, core.Config{}, nil)
	defer g.Close()
	if err := g.RecoverShards([]store.Log{logs[0], logs[1]}); err != nil {
		t.Fatal(err)
	}
	register := func(name string) {
		t.Helper()
		if resp := g.Handle(&Request{Register: &RegisterRequest{Name: name, Capacity: 10}}); resp.Err != "" {
			t.Fatal(resp.Err)
		}
	}
	names := []string{"a/0", "b/0", "c/0", "d/0", "e/0", "f/0"}
	for _, name := range names[:2] {
		register(name)
	}
	logs[0].refuse, logs[1].refuse = true, true
	for _, name := range names[2:5] {
		register(name)
	}
	logs[0].refuse, logs[1].refuse = false, false
	register(names[5])
	st, err := g.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.WalAppendErrors != 3 || len(st.Principals) != len(names) {
		t.Fatalf("Status counts %d append errors over %d principals, want 3 over %d", st.WalAppendErrors, len(st.Principals), len(names))
	}
	kept := logs[0].Log.(*store.MemLog).Len() + logs[1].Log.(*store.MemLog).Len()
	if kept != 3 {
		t.Fatalf("the logs hold %d records, want the 3 appended while they accepted writes", kept)
	}
}

// TestDoubleRevokeChangesNothing revokes a ticket twice — what an LRM does
// when the first reply is lost. The second call is answered like the first
// and leaves the journal's bytes, the status and the planner as they were.
// Servers before this fix journaled every retry, so such logs exist: one
// with the revoke record duplicated must still recover to the same state.
func TestDoubleRevokeChangesNothing(t *testing.T) {
	dir := t.TempDir()
	wal, err := store.OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	s := NewServer(core.Config{}, nil)
	defer s.Close()
	s.SetLog(wal)
	driveWorkload(t, s)
	share := s.Handle(&Request{Share: &ShareRequest{From: 1, To: 2, Fraction: 0.125}})
	if share.Err != "" {
		t.Fatal(share.Err)
	}
	revoke := &Request{Revoke: &RevokeRequest{Ticket: share.Share.Ticket}}
	if resp := s.Handle(revoke); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	// An allocation after the revoke, so there is a planner to compare.
	if resp := s.Handle(&Request{Alloc: &AllocRequest{Principal: 2, Amount: 1}}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	observe := func() (journal []byte, status string, planner *core.Allocator) {
		t.Helper()
		if journal, err = os.ReadFile(filepath.Join(dir, "wal.log")); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		planner = s.planner
		s.mu.Unlock()
		return journal, statusJSON(t, s), planner
	}
	journal, status, planner := observe()
	if planner == nil {
		t.Fatal("no planner after an allocation")
	}
	for retry := 0; retry < 2; retry++ {
		if resp := s.Handle(revoke); resp.Err != "" || resp.Revoke == nil {
			t.Fatalf("revoking a revoked ticket answered %+v, want the first call's reply", resp)
		}
		j, st, p := observe()
		if !bytes.Equal(j, journal) {
			t.Fatalf("retry %d grew the journal from %d to %d bytes", retry, len(journal), len(j))
		}
		if st != status {
			t.Fatalf("retry %d changed the status\n %s\nwas\n %s", retry, st, status)
		}
		if p != planner {
			t.Fatalf("retry %d replaced the planner", retry)
		}
	}

	dup := store.NewMemLog()
	revokes, seq := 0, uint64(0)
	if err := wal.Replay(func(rec *store.Record) error {
		copies := 1
		if rec.Kind == store.KindRevoke {
			copies = 3
			revokes++
		}
		for ; copies > 0; copies-- {
			again := *rec // each retry was journaled under a sequence number of its own
			seq++
			again.Seq = seq
			if err := dup.Append(&again); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if revokes != 2 || dup.Len() != int(seq) {
		t.Fatalf("the journal holds %d revoke records, want one per revoked ticket (2); the copy holds %d of %d records", revokes, dup.Len(), seq)
	}
	r := NewServer(core.Config{}, nil)
	defer r.Close()
	if err := r.Recover(dup); err != nil {
		t.Fatalf("Recover from a log with duplicate revokes: %v", err)
	}
	if got := statusJSON(t, r); got != status {
		t.Fatalf("recovered status\n %s\nwant\n %s", got, status)
	}
	leasesEqual(t, s, r)
}
