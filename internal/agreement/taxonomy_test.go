package agreement

import (
	"math"
	"math/rand"
	"testing"
)

func TestBuildComplete(t *testing.T) {
	s, ids, err := BuildComplete(5, General, 100, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 5 {
		t.Fatalf("got %d principals", len(ids))
	}
	m, err := matricesOf(s, General)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.S {
		for j := range m.S[i] {
			want := 0.1
			if i == j {
				want = 0
			}
			if math.Abs(m.S[i][j]-want) > 1e-12 {
				t.Errorf("S[%d][%d] = %g, want %g", i, j, m.S[i][j], want)
			}
		}
		if m.V[i] != 100 {
			t.Errorf("V[%d] = %g, want 100", i, m.V[i])
		}
	}
	if err := s.CheckConservative(); err != nil {
		t.Errorf("complete graph at 10%% is conservative: %v", err)
	}
}

func TestBuildLoop(t *testing.T) {
	s, ids, err := BuildLoop(4, General, 50, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := matricesOf(s, General)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		next := (i + 1) % 4
		for j := range ids {
			want := 0.0
			if j == next {
				want = 0.8
			}
			if math.Abs(m.S[i][j]-want) > 1e-12 {
				t.Errorf("S[%d][%d] = %g, want %g", i, j, m.S[i][j], want)
			}
		}
	}
}

func TestBuildSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s, _, err := BuildSparse(8, General, 10, 0.2, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	m, err := matricesOf(s, General)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.S {
		count := 0
		for j := range m.S[i] {
			if m.S[i][j] > 0 {
				count++
				if math.Abs(m.S[i][j]-0.2) > 1e-12 {
					t.Errorf("S[%d][%d] = %g, want 0.2", i, j, m.S[i][j])
				}
			}
		}
		if count != 3 {
			t.Errorf("principal %d has %d partners, want 3", i, count)
		}
		if m.S[i][i] != 0 {
			t.Errorf("self-share at %d", i)
		}
	}
}

func TestBuildDistanceDecay(t *testing.T) {
	s, _, err := BuildDistanceDecay(10, General, 1, []float64{0.2, 0.1, 0.05, 0.03})
	if err != nil {
		t.Fatal(err)
	}
	m, err := matricesOf(s, General)
	if err != nil {
		t.Fatal(err)
	}
	// Distance 1 neighbors of 0 are 1 and 9.
	if math.Abs(m.S[0][1]-0.2) > 1e-12 || math.Abs(m.S[0][9]-0.2) > 1e-12 {
		t.Errorf("distance-1 shares wrong: %g, %g", m.S[0][1], m.S[0][9])
	}
	if math.Abs(m.S[0][2]-0.1) > 1e-12 {
		t.Errorf("distance-2 share = %g, want 0.1", m.S[0][2])
	}
	if math.Abs(m.S[0][3]-0.05) > 1e-12 {
		t.Errorf("distance-3 share = %g, want 0.05", m.S[0][3])
	}
	// Distances 4 and 5 both use the last level.
	if math.Abs(m.S[0][4]-0.03) > 1e-12 || math.Abs(m.S[0][5]-0.03) > 1e-12 {
		t.Errorf("far shares wrong: %g, %g", m.S[0][4], m.S[0][5])
	}
}

func TestBuildHierarchical(t *testing.T) {
	s, ids, err := BuildHierarchical(3, 4, General, 10, 0.15, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 12 {
		t.Fatalf("got %d principals, want 12", len(ids))
	}
	m, err := matricesOf(s, General)
	if err != nil {
		t.Fatal(err)
	}
	// Intra-group share between members 1 and 2 of group 0.
	if math.Abs(m.S[1][2]-0.15) > 1e-12 {
		t.Errorf("intra share = %g, want 0.15", m.S[1][2])
	}
	// Gateways: principal 0 -> principal 4.
	if math.Abs(m.S[0][4]-0.05) > 1e-12 {
		t.Errorf("gateway share = %g, want 0.05", m.S[0][4])
	}
	// No cross-group share between non-gateways.
	if m.S[1][5] != 0 {
		t.Errorf("unexpected cross-group share %g", m.S[1][5])
	}
}

func TestBuildErrors(t *testing.T) {
	if _, _, err := BuildComplete(0, General, 1, 0.1); err == nil {
		t.Error("zero principals should fail")
	}
	if _, _, err := BuildComplete(3, General, 1, 1.5); err == nil {
		t.Error("share > 1 should fail")
	}
	if _, _, err := BuildSparse(3, General, 1, 0.1, 5, rand.New(rand.NewSource(1))); err == nil {
		t.Error("degree >= n should fail")
	}
	if _, _, err := BuildHierarchical(0, 3, General, 1, 0.1, 0.1); err == nil {
		t.Error("zero groups should fail")
	}
	if _, _, err := BuildDistanceDecay(3, General, 1, nil); err == nil {
		t.Error("empty share levels should fail")
	}
}
