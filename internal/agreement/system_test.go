package agreement

import (
	"errors"
	"math"
	"testing"
)

const disk ResourceType = "disk"

// paperExample1 builds Figure 1 of the paper: principals A, B, C, D; A
// owns 10 TB and B owns 15 TB of disk; A shares 3 TB (absolute) with C and
// 50% (relative) with B; B shares 60% with D.
func paperExample1(t *testing.T) (*System, [4]PrincipalID) {
	t.Helper()
	s := NewSystem()
	a := s.AddPrincipal("A")
	b := s.AddPrincipal("B")
	c := s.AddPrincipal("C")
	d := s.AddPrincipal("D")
	if _, err := s.AddResource("diskA", disk, a, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddResource("diskB", disk, b, 15); err != nil {
		t.Fatal(err)
	}
	// A's currency has face value 1000 (the default, as in the paper).
	if _, err := s.ShareAbsolute(s.CurrencyOf(a), s.CurrencyOf(c), disk, 3, Sharing); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ShareRelative(s.CurrencyOf(a), s.CurrencyOf(b), 500); err != nil {
		t.Fatal(err)
	}
	// B's currency face value is 100 in the paper; ticket face 60.
	if err := s.Inflate(s.CurrencyOf(b), 100); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ShareRelative(s.CurrencyOf(b), s.CurrencyOf(d), 60); err != nil {
		t.Fatal(err)
	}
	return s, [4]PrincipalID{a, b, c, d}
}

func TestPaperExample1Values(t *testing.T) {
	s, p := paperExample1(t)
	v, err := s.Values(disk)
	if err != nil {
		t.Fatalf("Values: %v", err)
	}
	want := map[string]float64{"A": 10, "B": 20, "C": 3, "D": 12}
	for name, pid := range map[string]PrincipalID{"A": p[0], "B": p[1], "C": p[2], "D": p[3]} {
		got := v[s.CurrencyOf(pid)]
		if math.Abs(got-want[name]) > 1e-9 {
			t.Errorf("value(%s) = %g, want %g", name, got, want[name])
		}
	}
}

func TestPaperExample1TicketValues(t *testing.T) {
	s, p := paperExample1(t)
	v, err := s.Values(disk)
	if err != nil {
		t.Fatalf("Values: %v", err)
	}
	// R-Ticket4 (A->B, 500 of 1000) is worth 10*500/1000 = 5.
	// R-Ticket5 (B->D, 60 of 100) is worth 20*60/100 = 12.
	curB := s.CurrencyOf(p[1])
	var got4, got5 float64
	for _, tk := range s.tickets {
		if tk.Kind == Relative && tk.Backs == curB {
			got4 = s.TicketValue(tk.ID, disk, v)
		}
		if tk.Kind == Relative && tk.Backs == s.CurrencyOf(p[3]) {
			got5 = s.TicketValue(tk.ID, disk, v)
		}
	}
	if math.Abs(got4-5) > 1e-9 {
		t.Errorf("R-Ticket4 value = %g, want 5", got4)
	}
	if math.Abs(got5-12) > 1e-9 {
		t.Errorf("R-Ticket5 value = %g, want 12", got5)
	}
}

// paperExample2 builds Figure 2: virtual currencies A1 (funded 30% of A)
// and A2 (funded 50% of A); A1 issues its whole face to C; A2 issues 40%
// to D and 60% to B.
func paperExample2(t *testing.T) (*System, [4]PrincipalID, [2]CurrencyID) {
	t.Helper()
	s := NewSystem()
	a := s.AddPrincipal("A")
	b := s.AddPrincipal("B")
	c := s.AddPrincipal("C")
	d := s.AddPrincipal("D")
	if _, err := s.AddResource("diskA", disk, a, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddResource("diskB", disk, b, 15); err != nil {
		t.Fatal(err)
	}
	a1, err := s.NewVirtualCurrency("A1", s.CurrencyOf(a), 300, 1000)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s.NewVirtualCurrency("A2", s.CurrencyOf(a), 500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ShareRelative(a1, s.CurrencyOf(c), 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ShareRelative(a2, s.CurrencyOf(d), 400); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ShareRelative(a2, s.CurrencyOf(b), 600); err != nil {
		t.Fatal(err)
	}
	return s, [4]PrincipalID{a, b, c, d}, [2]CurrencyID{a1, a2}
}

func TestPaperExample2VirtualValues(t *testing.T) {
	s, p, vc := paperExample2(t)
	v, err := s.Values(disk)
	if err != nil {
		t.Fatalf("Values: %v", err)
	}
	if math.Abs(v[vc[0]]-3) > 1e-9 {
		t.Errorf("value(A1) = %g, want 3", v[vc[0]])
	}
	if math.Abs(v[vc[1]]-5) > 1e-9 {
		t.Errorf("value(A2) = %g, want 5", v[vc[1]])
	}
	if got := v[s.CurrencyOf(p[2])]; math.Abs(got-3) > 1e-9 {
		t.Errorf("value(C) = %g, want 3", got)
	}
	if got := v[s.CurrencyOf(p[3])]; math.Abs(got-2) > 1e-9 {
		t.Errorf("value(D) = %g, want 2", got)
	}
	if got := v[s.CurrencyOf(p[1])]; math.Abs(got-18) > 1e-9 {
		t.Errorf("value(B) = %g, want 18 (own 15 + 3 via A2)", got)
	}
}

func TestVirtualCurrencyIsolation(t *testing.T) {
	// Inflating A2 dilutes B and D but leaves C (funded via A1) untouched:
	// the decoupling property Example 2 exists to demonstrate.
	s, p, vc := paperExample2(t)
	before, err := s.Values(disk)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Inflate(vc[1], 2000); err != nil {
		t.Fatal(err)
	}
	after, err := s.Values(disk)
	if err != nil {
		t.Fatal(err)
	}
	cCur := s.CurrencyOf(p[2])
	if math.Abs(before[cCur]-after[cCur]) > 1e-9 {
		t.Errorf("value(C) changed from %g to %g; A2 inflation must not affect A1's clients",
			before[cCur], after[cCur])
	}
	dCur := s.CurrencyOf(p[3])
	if math.Abs(after[dCur]-1) > 1e-9 { // 5 * 400/2000
		t.Errorf("value(D) = %g after inflation, want 1", after[dCur])
	}
}

func TestRevokeTicket(t *testing.T) {
	s, p := paperExample1(t)
	// Find and revoke the A->B relative ticket.
	var ab TicketID = -1
	for _, tk := range s.tickets {
		if tk.Kind == Relative && tk.Backs == s.CurrencyOf(p[1]) {
			ab = tk.ID
		}
	}
	if ab < 0 {
		t.Fatal("A->B ticket not found")
	}
	s.Revoke(ab)
	s.Revoke(ab) // idempotent
	v, err := s.Values(disk)
	if err != nil {
		t.Fatal(err)
	}
	if got := v[s.CurrencyOf(p[1])]; math.Abs(got-15) > 1e-9 {
		t.Errorf("value(B) after revoke = %g, want 15", got)
	}
	// D's transitive benefit shrinks too: 15*60/100 = 9.
	if got := v[s.CurrencyOf(p[3])]; math.Abs(got-9) > 1e-9 {
		t.Errorf("value(D) after revoke = %g, want 9", got)
	}
}

func TestGrantingMovesCapacity(t *testing.T) {
	s := NewSystem()
	a := s.AddPrincipal("A")
	b := s.AddPrincipal("B")
	if _, err := s.AddResource("r", disk, a, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Grant(s.CurrencyOf(a), s.CurrencyOf(b), disk, 4); err != nil {
		t.Fatal(err)
	}
	v, err := s.Values(disk)
	if err != nil {
		t.Fatal(err)
	}
	if got := v[s.CurrencyOf(a)]; math.Abs(got-6) > 1e-9 {
		t.Errorf("value(A) = %g, want 6 after granting 4", got)
	}
	if got := v[s.CurrencyOf(b)]; math.Abs(got-4) > 1e-9 {
		t.Errorf("value(B) = %g, want 4", got)
	}
	m, err := matricesOf(s, disk)
	if err != nil {
		t.Fatal(err)
	}
	if m.V[a] != 6 || m.V[b] != 4 {
		t.Errorf("V = %v, want [6 4]", m.V)
	}
	if m.A[a][b] != 0 {
		t.Errorf("granting must not appear in A, got %g", m.A[a][b])
	}
}

func TestGrantingVirtualRejected(t *testing.T) {
	s := NewSystem()
	a := s.AddPrincipal("A")
	if _, err := s.AddResource("r", disk, a, 10); err != nil {
		t.Fatal(err)
	}
	vc, err := s.NewVirtualCurrency("A1", s.CurrencyOf(a), 500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	b := s.AddPrincipal("B")
	if _, err := s.ShareAbsolute(vc, s.CurrencyOf(b), disk, 1, Granting); err == nil {
		t.Error("granting from a virtual currency should be rejected")
	}
}

func TestOvergrantingDetected(t *testing.T) {
	s := NewSystem()
	a := s.AddPrincipal("A")
	b := s.AddPrincipal("B")
	if _, err := s.AddResource("r", disk, a, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Grant(s.CurrencyOf(a), s.CurrencyOf(b), disk, 25); err != nil {
		t.Fatal(err)
	}
	if _, err := matricesOf(s, disk); err == nil {
		t.Error("SparseMatrices should reject a principal that granted more than it owns")
	}
}

func TestCheckConservative(t *testing.T) {
	s := NewSystem()
	a := s.AddPrincipal("A")
	b := s.AddPrincipal("B")
	c := s.AddPrincipal("C")
	if _, err := s.AddResource("r", disk, a, 10); err != nil {
		t.Fatal(err)
	}
	// 60% to B and 60% to C: the overdraft example from Section 3.2.
	if _, err := s.ShareRelative(s.CurrencyOf(a), s.CurrencyOf(b), 600); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckConservative(); err != nil {
		t.Fatalf("60%% issued should be fine: %v", err)
	}
	tkt, err := s.ShareRelative(s.CurrencyOf(a), s.CurrencyOf(c), 600)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckConservative(); !errors.Is(err, ErrOverdraft) {
		t.Errorf("120%% issued should report ErrOverdraft, got %v", err)
	}
	if got := s.IssuedShare(s.CurrencyOf(a)); math.Abs(got-1.2) > 1e-12 {
		t.Errorf("IssuedShare = %g, want 1.2", got)
	}
	s.Revoke(tkt)
	if err := s.CheckConservative(); err != nil {
		t.Errorf("after revoking the second ticket: %v", err)
	}
}

func TestSetCapacity(t *testing.T) {
	s := NewSystem()
	a := s.AddPrincipal("A")
	r, err := s.AddResource("r", disk, a, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetCapacity(r, 25); err != nil {
		t.Fatal(err)
	}
	v, err := s.Values(disk)
	if err != nil {
		t.Fatal(err)
	}
	if got := v[s.CurrencyOf(a)]; got != 25 {
		t.Errorf("value after SetCapacity = %g, want 25", got)
	}
	if err := s.SetCapacity(r, -1); err == nil {
		t.Error("negative capacity should be rejected")
	}
}

func TestValidationErrors(t *testing.T) {
	s := NewSystem()
	a := s.AddPrincipal("A")
	ca := s.CurrencyOf(a)
	if _, err := s.ShareRelative(ca, ca, 100); err == nil {
		t.Error("self-backing should be rejected")
	}
	if _, err := s.ShareRelative(ca, ca, -5); err == nil {
		t.Error("negative units should be rejected")
	}
	if _, err := s.AddResource("r", "", a, 5); err == nil {
		t.Error("empty resource type should be rejected")
	}
	if _, err := s.AddResource("r", disk, a, -5); err == nil {
		t.Error("negative capacity should be rejected")
	}
	if err := s.Inflate(ca, 0); err == nil {
		t.Error("zero face value should be rejected")
	}
	if _, err := s.NewVirtualCurrency("v", ca, 100, -1); err == nil {
		t.Error("negative face value should be rejected")
	}
	b := s.AddPrincipal("B")
	if _, err := s.ShareAbsolute(ca, s.CurrencyOf(b), disk, 0, Sharing); err == nil {
		t.Error("zero quantity should be rejected")
	}
}

func TestUnknownIDsPanic(t *testing.T) {
	s := NewSystem()
	for name, f := range map[string]func(){
		"principal": func() { s.Principal(3) },
		"currency":  func() { s.Currency(7) },
		"ticket":    func() { s.Ticket(0) },
		"resource":  func() { s.Resource(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s lookup with bad ID should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestResourceTypes(t *testing.T) {
	s := NewSystem()
	a := s.AddPrincipal("A")
	if _, err := s.AddResource("r1", "cpu", a, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddResource("r2", "disk", a, 1); err != nil {
		t.Fatal(err)
	}
	types := s.ResourceTypes()
	if len(types) != 2 {
		t.Errorf("ResourceTypes = %v, want 2 entries", types)
	}
}

func TestStringers(t *testing.T) {
	if Absolute.String() != "absolute" || Relative.String() != "relative" {
		t.Error("TicketKind.String wrong")
	}
	if Sharing.String() != "sharing" || Granting.String() != "granting" {
		t.Error("Mode.String wrong")
	}
}
