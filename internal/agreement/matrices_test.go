package agreement

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatricesExample1(t *testing.T) {
	s, p := paperExample1(t)
	m, err := s.Matrices(disk)
	if err != nil {
		t.Fatal(err)
	}
	if m.V[p[0]] != 10 || m.V[p[1]] != 15 || m.V[p[2]] != 0 || m.V[p[3]] != 0 {
		t.Errorf("V = %v, want [10 15 0 0]", m.V)
	}
	if math.Abs(m.S[p[0]][p[1]]-0.5) > 1e-12 {
		t.Errorf("S[A][B] = %g, want 0.5", m.S[p[0]][p[1]])
	}
	if math.Abs(m.S[p[1]][p[3]]-0.6) > 1e-12 {
		t.Errorf("S[B][D] = %g, want 0.6", m.S[p[1]][p[3]])
	}
	if math.Abs(m.A[p[0]][p[2]]-3) > 1e-12 {
		t.Errorf("A[A][C] = %g, want 3", m.A[p[0]][p[2]])
	}
	// No other entries.
	var sSum, aSum float64
	for i := range m.S {
		for j := range m.S[i] {
			sSum += m.S[i][j]
			aSum += m.A[i][j]
		}
	}
	if math.Abs(sSum-1.1) > 1e-12 || math.Abs(aSum-3) > 1e-12 {
		t.Errorf("stray matrix entries: sum(S)=%g (want 1.1), sum(A)=%g (want 3)", sSum, aSum)
	}
}

func TestMatricesExample2VirtualCollapse(t *testing.T) {
	s, p, _ := paperExample2(t)
	m, err := s.Matrices(disk)
	if err != nil {
		t.Fatal(err)
	}
	// A->A1 (30%) fully re-issued to C: effective 30%.
	if math.Abs(m.S[p[0]][p[2]]-0.3) > 1e-12 {
		t.Errorf("S[A][C] = %g, want 0.3", m.S[p[0]][p[2]])
	}
	// A->A2 (50%), A2 issues 40% to D and 60% to B.
	if math.Abs(m.S[p[0]][p[3]]-0.2) > 1e-12 {
		t.Errorf("S[A][D] = %g, want 0.2", m.S[p[0]][p[3]])
	}
	if math.Abs(m.S[p[0]][p[1]]-0.3) > 1e-12 {
		t.Errorf("S[A][B] = %g, want 0.3", m.S[p[0]][p[1]])
	}
}

func TestMatricesChainedVirtual(t *testing.T) {
	// A -> V1 (50%) -> V2 (50%) -> B should collapse to 25%.
	s := NewSystem()
	a := s.AddPrincipal("A")
	b := s.AddPrincipal("B")
	if _, err := s.AddResource("r", disk, a, 8); err != nil {
		t.Fatal(err)
	}
	v1, err := s.NewVirtualCurrency("V1", s.CurrencyOf(a), 500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.NewVirtualCurrency("V2", v1, 500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ShareRelative(v2, s.CurrencyOf(b), 1000); err != nil {
		t.Fatal(err)
	}
	m, err := s.Matrices(disk)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.S[a][b]-0.25) > 1e-12 {
		t.Errorf("S[A][B] = %g, want 0.25", m.S[a][b])
	}
	// Valuation agrees: B's currency should be worth 2.
	v, err := s.Values(disk)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v[s.CurrencyOf(b)]-2) > 1e-9 {
		t.Errorf("value(B) = %g, want 2", v[s.CurrencyOf(b)])
	}
}

func TestMatricesAbsoluteThroughVirtual(t *testing.T) {
	// An absolute 6-unit ticket into V (face 1000), which issues 50% to B:
	// B receives an effective absolute 3 sourced at A.
	s := NewSystem()
	a := s.AddPrincipal("A")
	b := s.AddPrincipal("B")
	if _, err := s.AddResource("r", disk, a, 10); err != nil {
		t.Fatal(err)
	}
	v1, err := s.NewVirtualCurrency("V", s.CurrencyOf(a), 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ShareAbsolute(s.CurrencyOf(a), v1, disk, 6, Sharing); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ShareRelative(v1, s.CurrencyOf(b), 500); err != nil {
		t.Fatal(err)
	}
	m, err := s.Matrices(disk)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.A[a][b]-3) > 1e-12 {
		t.Errorf("A[A][B] = %g, want 3", m.A[a][b])
	}
}

func TestMatricesVirtualCycle(t *testing.T) {
	s := NewSystem()
	a := s.AddPrincipal("A")
	if _, err := s.AddResource("r", disk, a, 10); err != nil {
		t.Fatal(err)
	}
	v1, err := s.NewVirtualCurrency("V1", s.CurrencyOf(a), 100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.NewVirtualCurrency("V2", v1, 100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ShareRelative(v2, v1, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Matrices(disk); !errors.Is(err, ErrVirtualCycle) {
		t.Error("cycle through virtual currencies should be reported")
	}
}

func TestMatricesSelfShareDropped(t *testing.T) {
	// A -> V -> back to A collapses to a self-share, which must vanish.
	s := NewSystem()
	a := s.AddPrincipal("A")
	if _, err := s.AddResource("r", disk, a, 10); err != nil {
		t.Fatal(err)
	}
	v1, err := s.NewVirtualCurrency("V", s.CurrencyOf(a), 500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ShareRelative(v1, s.CurrencyOf(a), 1000); err != nil {
		t.Fatal(err)
	}
	m, err := s.Matrices(disk)
	if err != nil {
		t.Fatal(err)
	}
	if m.S[a][a] != 0 {
		t.Errorf("S[A][A] = %g, want 0", m.S[a][a])
	}
}

func TestMatricesIgnoreOtherTypes(t *testing.T) {
	s := NewSystem()
	a := s.AddPrincipal("A")
	b := s.AddPrincipal("B")
	if _, err := s.AddResource("d", disk, a, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddResource("c", "cpu", b, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ShareAbsolute(s.CurrencyOf(b), s.CurrencyOf(a), "cpu", 2, Sharing); err != nil {
		t.Fatal(err)
	}
	m, err := s.Matrices(disk)
	if err != nil {
		t.Fatal(err)
	}
	if m.V[b] != 0 {
		t.Errorf("V[B] for disk = %g, want 0 (B owns only cpu)", m.V[b])
	}
	if m.A[b][a] != 0 {
		t.Errorf("A[B][A] for disk = %g, want 0 (agreement is for cpu)", m.A[b][a])
	}
	mc, err := s.Matrices("cpu")
	if err != nil {
		t.Fatal(err)
	}
	if mc.V[b] != 4 || mc.A[b][a] != 2 {
		t.Errorf("cpu matrices wrong: V[B]=%g A[B][A]=%g", mc.V[b], mc.A[b][a])
	}
}

// TestMatricesRowSumMatchesIssuedShare: for systems without virtual
// currencies, each row sum of S equals the principal's issued share.
func TestMatricesRowSumMatchesIssuedShare(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSystem(rng, 2+rng.Intn(8))
		m, err := s.Matrices(disk)
		if err != nil {
			return false
		}
		for i := range m.S {
			var row float64
			for _, v := range m.S[i] {
				row += v
			}
			want := s.IssuedShare(s.CurrencyOf(PrincipalID(i)))
			if math.Abs(row-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMatricesRevokedExcluded(t *testing.T) {
	s, p := paperExample1(t)
	var ab TicketID = -1
	for _, tk := range s.tickets {
		if tk.Kind == Relative && tk.Backs == s.CurrencyOf(p[1]) {
			ab = tk.ID
		}
	}
	s.Revoke(ab)
	m, err := s.Matrices(disk)
	if err != nil {
		t.Fatal(err)
	}
	if m.S[p[0]][p[1]] != 0 {
		t.Errorf("revoked agreement still in S: %g", m.S[p[0]][p[1]])
	}
}

// TestDirectAgreementMatchesMatrices pins the single-cell accessor to the
// matrix build bit for bit across random share/revoke histories —
// repeated tickets on one pair, other resource types, granting tickets
// and an inflated currency included — and checks it declines once a
// virtual currency exists.
func TestDirectAgreementMatchesMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		s := NewSystem()
		const n = 5
		for p := 0; p < n; p++ {
			pid := s.AddPrincipal(string(rune('A' + p)))
			if _, err := s.AddResource("r", General, pid, 100); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Inflate(s.CurrencyOf(2), 3000); err != nil {
			t.Fatal(err)
		}
		var tickets []TicketID
		for step := 0; step < 40; step++ {
			from, to := PrincipalID(rng.Intn(n)), PrincipalID(rng.Intn(n))
			if from == to {
				continue
			}
			fc, tc := s.CurrencyOf(from), s.CurrencyOf(to)
			var tid TicketID
			var err error
			switch rng.Intn(5) {
			case 0, 1:
				tid, err = s.ShareRelative(fc, tc, 1+rng.Float64()*99)
			case 2:
				tid, err = s.ShareAbsolute(fc, tc, General, 0.1+rng.Float64(), Sharing)
			case 3:
				if rng.Intn(2) == 0 {
					tid, err = s.ShareAbsolute(fc, tc, "disk", 1, Sharing)
				} else {
					tid, err = s.Grant(fc, tc, General, 0.5)
				}
			default:
				if len(tickets) > 0 {
					s.Revoke(tickets[rng.Intn(len(tickets))])
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			tickets = append(tickets, tid)
		}
		m, err := s.SparseMatrices(General)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				rel, abs, ok := s.DirectAgreement(PrincipalID(i), PrincipalID(j), General)
				if !ok {
					t.Fatalf("trial %d: no virtual currency, yet DirectAgreement declined", trial)
				}
				if rel != m.S.At(i, j) || abs != m.A.At(i, j) {
					t.Fatalf("trial %d: cell (%d,%d) = (%v, %v), matrices hold (%v, %v)",
						trial, i, j, rel, abs, m.S.At(i, j), m.A.At(i, j))
				}
			}
		}
		if _, err := s.NewVirtualCurrency("v", s.CurrencyOf(0), 100, 1000); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := s.DirectAgreement(0, 1, General); ok {
			t.Fatalf("trial %d: DirectAgreement answered beside a virtual currency", trial)
		}
	}
}
