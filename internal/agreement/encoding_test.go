package agreement

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSnapshotRoundTripExample1(t *testing.T) {
	s, p := paperExample1(t)
	snap := s.Snapshot()

	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored, names, err := parsed.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 4 {
		t.Fatalf("restored %d principals, want 4", len(names))
	}
	origVals, err := s.Values(disk)
	if err != nil {
		t.Fatal(err)
	}
	newVals, err := restored.Values(disk)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"A", "B", "C", "D"} {
		orig := origVals[s.CurrencyOf(p[indexOf(name)])]
		got := newVals[restored.CurrencyOf(names[name])]
		if math.Abs(orig-got) > 1e-9 {
			t.Errorf("value(%s): original %g, restored %g", name, orig, got)
		}
	}
	// Matrices must round-trip too.
	origM, err := matricesOf(s, disk)
	if err != nil {
		t.Fatal(err)
	}
	newM, err := matricesOf(restored, disk)
	if err != nil {
		t.Fatal(err)
	}
	for i := range origM.S {
		for j := range origM.S[i] {
			if math.Abs(origM.S[i][j]-newM.S[i][j]) > 1e-9 {
				t.Errorf("S[%d][%d]: %g vs %g", i, j, origM.S[i][j], newM.S[i][j])
			}
			if math.Abs(origM.A[i][j]-newM.A[i][j]) > 1e-9 {
				t.Errorf("A[%d][%d]: %g vs %g", i, j, origM.A[i][j], newM.A[i][j])
			}
		}
	}
}

func indexOf(name string) int {
	return map[string]int{"A": 0, "B": 1, "C": 2, "D": 3}[name]
}

func TestSnapshotRoundTripVirtualCurrencies(t *testing.T) {
	s, p, _ := paperExample2(t)
	snap := s.Snapshot()
	restored, names, err := snap.Restore()
	if err != nil {
		t.Fatal(err)
	}
	origVals, err := s.Values(disk)
	if err != nil {
		t.Fatal(err)
	}
	newVals, err := restored.Values(disk)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"B", "C", "D"} {
		orig := origVals[s.CurrencyOf(p[indexOf(name)])]
		got := newVals[restored.CurrencyOf(names[name])]
		if math.Abs(orig-got) > 1e-9 {
			t.Errorf("value(%s): original %g, restored %g", name, orig, got)
		}
	}
}

func TestSnapshotExcludesRevoked(t *testing.T) {
	s, p := paperExample1(t)
	for _, tk := range s.tickets {
		if tk.Kind == Relative && tk.Backs == s.CurrencyOf(p[1]) {
			s.Revoke(tk.ID)
		}
	}
	snap := s.Snapshot()
	for _, a := range snap.Agreements {
		if a.From == "A" && a.To == "B" {
			t.Error("revoked agreement survived the snapshot")
		}
	}
}

func TestSnapshotGranting(t *testing.T) {
	s := NewSystem()
	a := s.AddPrincipal("A")
	b := s.AddPrincipal("B")
	if _, err := s.AddResource("r", disk, a, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Grant(s.CurrencyOf(a), s.CurrencyOf(b), disk, 4); err != nil {
		t.Fatal(err)
	}
	restored, _, err := s.Snapshot().Restore()
	if err != nil {
		t.Fatal(err)
	}
	m, err := matricesOf(restored, disk)
	if err != nil {
		t.Fatal(err)
	}
	if m.V[0] != 6 || m.V[1] != 4 {
		t.Errorf("granting lost in round trip: V = %v", m.V)
	}
}

func TestReadSnapshotErrors(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"garbage", "not json"},
		{"unknown field", `{"wat": 1}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadSnapshot(strings.NewReader(tc.json)); err == nil {
				t.Error("bad snapshot accepted")
			}
		})
	}
}

func TestRestoreValidation(t *testing.T) {
	cases := []struct {
		name string
		snap Snapshot
	}{
		{"empty principal name", Snapshot{Principals: []PrincipalSnapshot{{Name: ""}}}},
		{"duplicate principal", Snapshot{Principals: []PrincipalSnapshot{{Name: "A"}, {Name: "A"}}}},
		{"unknown resource owner", Snapshot{
			Principals: []PrincipalSnapshot{{Name: "A"}},
			Resources:  []ResourceSnapshot{{Name: "r", Type: "d", Owner: "Z", Capacity: 1}},
		}},
		{"unknown agreement endpoint", Snapshot{
			Principals: []PrincipalSnapshot{{Name: "A"}},
			Agreements: []AgreementSnapshot{{From: "A", To: "Z", Fraction: 0.5}},
		}},
		{"both fraction and quantity", Snapshot{
			Principals: []PrincipalSnapshot{{Name: "A"}, {Name: "B"}},
			Agreements: []AgreementSnapshot{{From: "A", To: "B", Fraction: 0.5, Quantity: 2}},
		}},
		{"relative grant", Snapshot{
			Principals: []PrincipalSnapshot{{Name: "A"}, {Name: "B"}},
			Agreements: []AgreementSnapshot{{From: "A", To: "B", Fraction: 0.5, Granting: true}},
		}},
		{"unknown currency source", Snapshot{
			Principals: []PrincipalSnapshot{{Name: "A"}},
			Currencies: []CurrencySnapshot{{Name: "V", Source: "Z", Units: 1, FaceValue: 10}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := tc.snap.Restore(); err == nil {
				t.Error("invalid snapshot restored")
			}
		})
	}
}

func TestRestoreCustomFaceValue(t *testing.T) {
	snap := Snapshot{
		Principals: []PrincipalSnapshot{{Name: "A", FaceValue: 100}, {Name: "B"}},
		Resources:  []ResourceSnapshot{{Name: "r", Type: "d", Owner: "A", Capacity: 10}},
		Agreements: []AgreementSnapshot{{From: "A", To: "B", Fraction: 0.5}},
	}
	s, names, err := snap.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Currency(s.CurrencyOf(names["A"])).FaceValue; got != 100 {
		t.Errorf("face value = %g, want 100", got)
	}
	v, err := s.Values("d")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v[s.CurrencyOf(names["B"])]-5) > 1e-9 {
		t.Errorf("value(B) = %g, want 5", v[s.CurrencyOf(names["B"])])
	}
}

// TestQuickSnapshotRoundTrip: random systems survive snapshot/restore
// with identical valuations and matrices.
func TestQuickSnapshotRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSystem(rng, 2+rng.Intn(6))
		restored, _, err := s.Snapshot().Restore()
		if err != nil {
			t.Logf("seed %d: restore failed: %v", seed, err)
			return false
		}
		origV, errO := s.Values(disk)
		newV, errN := restored.Values(disk)
		if (errO == nil) != (errN == nil) {
			return false
		}
		if errO != nil {
			return true
		}
		// Default currencies are created in the same order.
		for i := 0; i < s.NumPrincipals(); i++ {
			a := origV[s.CurrencyOf(PrincipalID(i))]
			b := newV[restored.CurrencyOf(PrincipalID(i))]
			if math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
				t.Logf("seed %d: principal %d value %g vs %g", seed, i, a, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
