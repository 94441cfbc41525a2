package grm

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"log"
	"strings"
	"testing"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/store"
)

// nameList returns k principal names, prefix0 to prefix<k-1>.
func nameList(prefix string, k int) []string {
	names := make([]string, k)
	for i := range names {
		names[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return names
}

// registerAs registers name through Handle and returns its principal.
func registerAs(t *testing.T, s *Server, name string, capacity float64) int {
	t.Helper()
	resp := s.Handle(&Request{Register: &RegisterRequest{Name: name, Capacity: capacity}})
	if resp.Register == nil {
		t.Fatalf("register %q: %s", name, resp.Err)
	}
	return resp.Register.Principal
}

// checkNameIndex fails unless byName is exactly names inverted.
func checkNameIndex(t *testing.T, s *Server, when string) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.byName) != len(s.names) {
		t.Errorf("%s: the name index holds %d names, the server %d", when, len(s.byName), len(s.names))
	}
	for i, name := range s.names {
		if got, ok := s.byName[name]; !ok || got != i {
			t.Errorf("%s: the name index maps %q to %d (present %v), want %d", when, name, got, ok, i)
		}
	}
}

// declaredAB declares principals A and B, A sharing half of its 100 with B.
func declaredAB() *agreement.Snapshot {
	return &agreement.Snapshot{
		Principals: []agreement.PrincipalSnapshot{{Name: "A"}, {Name: "B"}},
		Resources: []agreement.ResourceSnapshot{
			{Name: "rA", Type: "general", Owner: "A", Capacity: 100},
			{Name: "rB", Type: "general", Owner: "B", Capacity: 40},
		},
		Agreements: []agreement.AgreementSnapshot{{From: "A", To: "B", Fraction: 0.5}},
	}
}

// TestNameIndexCoherent checks the name index on every path that rebuilds
// the principal names: a new register, a re-attach, a loaded snapshot and
// an LRM registering under one of its declared names, and recovery from a
// log of registrations and from a compacted state record, each with and
// without a declared snapshot. After every recovery, each name registers
// back onto the principal it held, and a new name gets the next one.
func TestNameIndexCoherent(t *testing.T) {
	for _, declared := range []bool{false, true} {
		for _, compact := range []bool{false, true} {
			lg := store.NewMemLog()
			s := NewServer(core.Config{}, nil)
			s.SetLog(lg)
			if declared {
				if err := s.LoadSnapshot(declaredAB()); err != nil {
					t.Fatal(err)
				}
				checkNameIndex(t, s, "after LoadSnapshot")
				if got := registerAs(t, s, "B", 40); got != s.byName["B"] || len(s.names) != 2 {
					t.Fatalf("B registered as principal %d of %d, want declared principal %d of 2", got, len(s.names), s.byName["B"])
				}
			}
			first := registerAs(t, s, "A", 10)
			registerAs(t, s, "C", 5)
			registerAs(t, s, "D", 5)
			if again := registerAs(t, s, "A", 12); again != first {
				t.Fatalf("A re-attached as principal %d, registered as %d", again, first)
			}
			checkNameIndex(t, s, "after register and re-attach")
			if compact {
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			names := append([]string(nil), s.names...)
			s.Close()

			when := fmt.Sprintf("recovered (declared %v, compacted %v)", declared, compact)
			r := NewServer(core.Config{}, nil)
			if err := r.Recover(lg); err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			if strings.Join(r.names, ",") != strings.Join(names, ",") {
				t.Fatalf("%s: names %v, want %v", when, r.names, names)
			}
			checkNameIndex(t, r, when)
			for i, name := range names {
				if got := registerAs(t, r, name, 1); got != i {
					t.Errorf("%s: %q registered back as principal %d, want %d", when, name, got, i)
				}
			}
			if got := registerAs(t, r, "E", 1); got != len(names) {
				t.Errorf("%s: a new name got principal %d, want %d", when, got, len(names))
			}
			checkNameIndex(t, r, when+" and registered again")
			r.Close()
		}
	}
}

// TestRegisterLogsOnlyLiveRegistrations: recovery replays registrations
// through the same helper a live register runs, but only the wire handler
// logs. Replaying a log of 100 registrations, or the state record they
// compact to, prints nothing about them; a live register and a live
// re-attach print one line each.
func TestRegisterLogsOnlyLiveRegistrations(t *testing.T) {
	lg := store.NewMemLog()
	s := NewServer(core.Config{}, nil)
	s.SetLog(lg)
	for _, name := range nameList("p", 100) {
		registerAs(t, s, name, 1)
	}
	s.Close()
	mentions := func(out string) bool {
		return strings.Contains(out, "registered") || strings.Contains(out, "re-attached")
	}

	var out bytes.Buffer
	r := NewServer(core.Config{}, log.New(&out, "", 0))
	defer r.Close()
	if err := r.Recover(lg); err != nil {
		t.Fatal(err)
	}
	if mentions(out.String()) {
		t.Errorf("replaying 100 registrations logged:\n%s", out.String())
	}
	out.Reset()
	if got := registerAs(t, r, "new", 2); got != 100 {
		t.Fatalf("new registered as principal %d, want 100", got)
	}
	if want := "grm: registered \"new\" as principal 100 (capacity 2)\n"; out.String() != want {
		t.Errorf("a live register logged %q, want %q", out.String(), want)
	}
	out.Reset()
	registerAs(t, r, "p3", 2)
	if want := "grm: \"p3\" re-attached as principal 3 (capacity 2)\n"; out.String() != want {
		t.Errorf("a live re-attach logged %q, want %q", out.String(), want)
	}

	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	var stateOut bytes.Buffer
	r2 := NewServer(core.Config{}, log.New(&stateOut, "", 0))
	defer r2.Close()
	if err := r2.Recover(lg); err != nil {
		t.Fatal(err)
	}
	if len(r2.names) != 101 || mentions(stateOut.String()) {
		t.Errorf("replaying a state record of %d principals logged:\n%s", len(r2.names), stateOut.String())
	}
}

// TestShardOfNameIsFNV1a pins the routing rule shard WAL layouts depend on:
// the shard of a name is hash/fnv's 32-bit FNV-1a of its first
// '/'-separated segment, modulo the shard count, for names with no '/',
// with an empty first segment, with several separators and with multibyte
// characters.
func TestShardOfNameIsFNV1a(t *testing.T) {
	names := []string{
		"", "a", "noslash", "site/node", "/leading", "/", "a//b", "clusterA/node7/x",
		"日本/東京", "ünïcödé", "ß/x", "\xff\xfe/bytes", strings.Repeat("long", 40) + "/tail",
	}
	for _, shards := range []int{1, 2, 3, 7, 16} {
		g := NewSharded(shards, core.Config{}, nil)
		for _, name := range names {
			seg, _, _ := strings.Cut(name, "/")
			h := fnv.New32a()
			h.Write([]byte(seg))
			if got, want := g.ShardOf(name), int(h.Sum32()%uint32(shards)); got != want {
				t.Errorf("%d shards: %q routes to shard %d, hash/fnv says %d", shards, name, got, want)
			}
		}
		g.Close()
	}
}
