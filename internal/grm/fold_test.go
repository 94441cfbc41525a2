package grm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/store"
)

// TestFoldMatchesSystemOracle pins the served books to the ticket model
// they layer on. Each trial starts from a random declared snapshot, or
// none — virtual currencies, face-value overrides, granting agreements and
// Overdraft included — then runs random registers, re-attaches, shares,
// self-shares, revokes and double revokes through Server.Handle, and makes
// the same operations on an agreement.System. After every step the S and
// A the server plans with equal that System's SparseMatrices(General) bit
// for bit: the live planner, which every share and revoke patched in
// place; a fresh rebuild from the declared base and the share history; and
// a server recovered from the log, compacted now and then.
func TestFoldMatchesSystemOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	trials, steps := 60, 40
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		o := newFoldOracle(t, rng)
		for step := 0; step < steps; step++ {
			o.step(rng)
			o.check(fmt.Sprintf("trial %d step %d", trial, step))
		}
		o.srv.Close()
	}
}

// foldOracle is one trial of TestFoldMatchesSystemOracle: the server, its
// log, and the System the same operations are made on.
type foldOracle struct {
	t       *testing.T
	srv     *Server
	wal     *store.MemLog
	sys     *agreement.System
	names   []string
	tickets []agreement.TicketID // wire ticket token -> the System's ticket
}

func newFoldOracle(t *testing.T, rng *rand.Rand) *foldOracle {
	o := &foldOracle{t: t, srv: NewServer(core.Config{}, nil), wal: store.NewMemLog(), sys: agreement.NewSystem()}
	o.srv.SetLog(o.wal)
	if rng.Intn(3) > 0 {
		// Draw until the server accepts: a draw may overdraw a currency
		// without declaring Overdraft, or grant away more than it owns.
		snap := randomDeclared(rng)
		for tries := 1; o.srv.LoadSnapshot(snap) != nil; tries++ {
			if tries == 100 {
				t.Fatal("no valid snapshot in 100 draws")
			}
			snap = randomDeclared(rng)
		}
		sys, principals, err := snap.Restore()
		if err != nil {
			t.Fatal(err)
		}
		o.sys, o.names = sys, make([]string, len(principals))
		for name, pid := range principals {
			o.names[pid] = name
		}
	}
	return o
}

// randomDeclared draws a valid snapshot of 2–5 principals.
func randomDeclared(rng *rand.Rand) *agreement.Snapshot {
	snap := &agreement.Snapshot{Overdraft: rng.Intn(3) == 0}
	n := 2 + rng.Intn(4)
	var currencies []string // principals and virtual currencies, funding order
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("d%d", i)
		p := agreement.PrincipalSnapshot{Name: name}
		if rng.Intn(2) == 0 {
			p.FaceValue = []float64{250, 777.7, 3000}[rng.Intn(3)]
		}
		snap.Principals = append(snap.Principals, p)
		snap.Resources = append(snap.Resources, agreement.ResourceSnapshot{Name: "r" + name, Type: "general", Owner: name, Capacity: 20 + 80*rng.Float64()})
		if rng.Intn(4) == 0 {
			snap.Resources = append(snap.Resources, agreement.ResourceSnapshot{Name: "c" + name, Type: "cpu", Owner: name, Capacity: 5})
		}
		currencies = append(currencies, name)
	}
	for v := 0; v < rng.Intn(3); v++ {
		name := fmt.Sprintf("v%d", v)
		snap.Currencies = append(snap.Currencies, agreement.CurrencySnapshot{
			Name: name, Source: currencies[rng.Intn(len(currencies))], Units: 50 + 100*rng.Float64(), FaceValue: 1000})
		currencies = append(currencies, name)
	}
	for k := 0; k < 2+rng.Intn(2*n); k++ {
		from, to := currencies[rng.Intn(len(currencies))], snap.Principals[rng.Intn(n)].Name
		if from == to {
			continue
		}
		a := agreement.AgreementSnapshot{From: from, To: to}
		switch rng.Intn(5) {
		case 0:
			a.Quantity, a.Type = 1+4*rng.Float64(), "general"
		case 1:
			if from[0] != 'd' {
				continue // a grant connects default currencies
			}
			a.Quantity, a.Type, a.Granting = 1+4*rng.Float64(), "general", true
		case 2:
			a.Quantity, a.Type = 1, "cpu"
		default:
			a.Fraction = 0.01 + 0.15*rng.Float64()
		}
		snap.Agreements = append(snap.Agreements, a)
	}
	return snap
}

// step makes one random operation on the server and, where the server
// accepts it, on the System.
func (o *foldOracle) step(rng *rand.Rand) {
	t, n := o.t, len(o.names)
	switch op := rng.Intn(10); {
	case op < 2 || n < 2:
		name := fmt.Sprintf("w%d", n)
		if n > 0 && rng.Intn(3) == 0 {
			name = o.names[rng.Intn(n)] // a re-attach
		}
		capacity := 10 + 90*rng.Float64()
		resp := o.srv.Handle(&Request{Register: &RegisterRequest{Name: name, Capacity: capacity}})
		if resp.Register == nil {
			t.Fatalf("register %s: %s", name, resp.Err)
		}
		if resp.Register.Principal == n {
			p := o.sys.AddPrincipal(name)
			if _, err := o.sys.AddResource(name, agreement.General, p, capacity); err != nil {
				t.Fatal(err)
			}
			o.names = append(o.names, name)
		}
	case op < 7:
		from, to := rng.Intn(n), rng.Intn(n)
		if rng.Intn(8) == 0 {
			to = from
		}
		req := &ShareRequest{From: from, To: to}
		if rng.Intn(3) == 0 {
			req.Quantity = 0.5 + 3*rng.Float64()
		} else {
			req.Fraction = 0.3 * rng.Float64()
		}
		resp := o.srv.Handle(&Request{Share: req})
		fc, tc := o.sys.CurrencyOf(agreement.PrincipalID(from)), o.sys.CurrencyOf(agreement.PrincipalID(to))
		var tid agreement.TicketID
		var err error
		if req.Fraction > 0 {
			tid, err = o.sys.ShareRelative(fc, tc, req.Fraction*o.sys.Currency(fc).FaceValue)
		} else {
			tid, err = o.sys.ShareAbsolute(fc, tc, agreement.General, req.Quantity, agreement.Sharing)
		}
		if (resp.Share == nil) != (err != nil) {
			t.Fatalf("share %d -> %d: server says %q, the System %v", from, to, resp.Err, err)
		}
		if err == nil {
			if resp.Share.Ticket != len(o.tickets) {
				t.Fatalf("share %d -> %d got ticket %d, want %d", from, to, resp.Share.Ticket, len(o.tickets))
			}
			o.tickets = append(o.tickets, tid)
		}
	case op < 9 && len(o.tickets) > 0:
		ticket := rng.Intn(len(o.tickets)) // already revoked one time in a few
		if resp := o.srv.Handle(&Request{Revoke: &RevokeRequest{Ticket: ticket}}); resp.Err != "" {
			t.Fatalf("revoke %d: %s", ticket, resp.Err)
		}
		o.sys.Revoke(o.tickets[ticket])
	default:
		if err := o.srv.Compact(); err != nil {
			t.Fatal(err)
		}
	}
}

// check compares the live planner, a fresh rebuild and a recovered
// server's planner with the System's matrices.
func (o *foldOracle) check(when string) {
	t := o.t
	m, err := o.sys.SparseMatrices(agreement.General)
	if err != nil {
		t.Fatalf("%s: oracle: %v", when, err)
	}
	o.srv.mu.Lock()
	live, err := o.srv.currentPlannerLocked()
	if err != nil {
		o.srv.mu.Unlock()
		t.Fatalf("%s: planner: %v", when, err)
	}
	o.srv.planner = nil
	rebuilt, err := o.srv.currentPlannerLocked()
	o.srv.planner = live
	o.srv.mu.Unlock()
	if err != nil {
		t.Fatalf("%s: rebuild: %v", when, err)
	}
	recovered := NewServer(core.Config{}, nil)
	defer recovered.Close()
	if err := recovered.Recover(o.wal); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	recovered.mu.Lock()
	replayed, err := recovered.currentPlannerLocked()
	recovered.mu.Unlock()
	if err != nil {
		t.Fatalf("%s: recovered planner: %v", when, err)
	}
	for _, c := range []struct {
		name string
		al   *core.Allocator
	}{{"live", live}, {"rebuilt", rebuilt}, {"recovered", replayed}} {
		if c.al.N() != m.S.N() {
			t.Fatalf("%s: %s planner over %d principals, oracle %d", when, c.name, c.al.N(), m.S.N())
		}
		for i := 0; i < m.S.N(); i++ {
			for j := 0; j < m.S.N(); j++ {
				if math.Float64bits(c.al.Share(i, j)) != math.Float64bits(m.S.At(i, j)) ||
					math.Float64bits(c.al.Agreement(i, j)) != math.Float64bits(m.A.At(i, j)) {
					t.Fatalf("%s: %s planner's (S, A)[%d][%d] = (%v, %v), oracle (%v, %v)", when, c.name, i, j,
						c.al.Share(i, j), c.al.Agreement(i, j), m.S.At(i, j), m.A.At(i, j))
				}
			}
		}
	}
}
