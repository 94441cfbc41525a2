package agreement

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// denseMatrices is what SparseMatrices returns with S and A exported
// dense, for tests that read cells by index.
type denseMatrices struct {
	V    []float64
	S, A [][]float64
}

func matricesOf(s *System, typ ResourceType) (*denseMatrices, error) {
	m, err := s.SparseMatrices(typ)
	if err != nil {
		return nil, err
	}
	return &denseMatrices{V: m.V, S: m.S.Dense(), A: m.A.Dense()}, nil
}

func TestMatricesExample1(t *testing.T) {
	s, p := paperExample1(t)
	m, err := matricesOf(s, disk)
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
	m, err := matricesOf(s, disk)
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
	m, err := matricesOf(s, disk)
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
	m, err := matricesOf(s, disk)
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
	if _, err := matricesOf(s, disk); !errors.Is(err, ErrVirtualCycle) {
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
	m, err := matricesOf(s, disk)
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
	m, err := matricesOf(s, disk)
	if err != nil {
		t.Fatal(err)
	}
	if m.V[b] != 0 {
		t.Errorf("V[B] for disk = %g, want 0 (B owns only cpu)", m.V[b])
	}
	if m.A[b][a] != 0 {
		t.Errorf("A[B][A] for disk = %g, want 0 (agreement is for cpu)", m.A[b][a])
	}
	mc, err := matricesOf(s, "cpu")
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
		m, err := matricesOf(s, disk)
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
	m, err := matricesOf(s, disk)
	if err != nil {
		t.Fatal(err)
	}
	if m.S[p[0]][p[1]] != 0 {
		t.Errorf("revoked agreement still in S: %g", m.S[p[0]][p[1]])
	}
}

// TestSparseOf pins the one dense import: nil is no matrix, a non-square
// matrix is refused, exact zeros of either sign are left unstored, and
// Dense gives back the input bit for bit.
func TestSparseOf(t *testing.T) {
	if m, err := SparseOf(nil); m != nil || err != nil {
		t.Fatalf("SparseOf(nil) = %v, %v; want nil, nil", m, err)
	}
	for _, bad := range [][][]float64{
		{{0, 0.3}},
		{{0, 0.3}, {0.2}},
		{{0, 0.3, 0}, {0.2, 0, 0}},
	} {
		if _, err := SparseOf(bad); err == nil {
			t.Errorf("SparseOf(%v) accepted a non-square matrix", bad)
		}
	}
	negZero := math.Copysign(0, -1)
	in := [][]float64{
		{0, 0.25, negZero, 1e-300},
		{negZero, 0, 0, 0},
		{0.5, 0.125, 0, 3},
		{0, 0, 0, 0},
	}
	m, err := SparseOf(in)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 4 || m.NNZ() != 5 {
		t.Fatalf("n = %d, nnz = %d; want 4 and 5 (zeros and -0 unstored)", m.N(), m.NNZ())
	}
	if cols, _ := m.Row(1); len(cols) != 0 {
		t.Errorf("row 1 stores %v, want nothing", cols)
	}
	if cols, vals := m.Row(2); len(cols) != 3 || cols[0] != 0 || cols[1] != 1 || cols[2] != 3 || vals[2] != 3 {
		t.Errorf("row 2 = %v %v, want ascending columns 0 1 3", cols, vals)
	}
	out := m.Dense()
	// Every stored value round-trips bit for bit; an unstored one is +0.
	for i := range in {
		for j := range in[i] {
			want := in[i][j]
			if want == 0 {
				want = 0 // −0 is unstored and comes back as +0
			}
			if math.Float64bits(out[i][j]) != math.Float64bits(want) {
				t.Errorf("Dense[%d][%d] bits %x, want %x", i, j, math.Float64bits(out[i][j]), math.Float64bits(want))
			}
		}
	}
	empty, err := SparseOf([][]float64{})
	if err != nil || empty == nil || empty.N() != 0 {
		t.Errorf("SparseOf(empty) = %v, %v; want an empty matrix", empty, err)
	}
}
