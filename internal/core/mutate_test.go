package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/num"
	"repro/internal/transitive"
)

// mutateScenario builds a sparse random agreement system large enough
// that skeleton/closure sharing matters but small enough for exact
// enumeration at the given level.
func mutateScenario(rng *rand.Rand, n, edges int) (s [][]float64, v []float64) {
	s = make([][]float64, n)
	for i := range s {
		s[i] = make([]float64, n)
	}
	for e := 0; e < edges; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		s[i][j] = 0.05 + 0.4*rng.Float64()
	}
	v = make([]float64, n)
	for i := range v {
		v[i] = 20 + 40*rng.Float64()
	}
	return s, v
}

func cloneMatrix(m [][]float64) [][]float64 {
	if m == nil {
		return nil
	}
	out := make([][]float64, len(m))
	for i := range m {
		out[i] = append([]float64(nil), m[i]...)
	}
	return out
}

// floatsIdentical reports whether two dense rows hold identical values.
func floatsIdentical(a, b []float64) bool {
	for i := range a {
		if !num.IsZero(a[i] - b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// growSquare copies an n×n matrix into a larger nn×nn one, zero-extending
// every row and appending zero rows.
func growSquare(m [][]float64, nn int) [][]float64 {
	out := make([][]float64, nn)
	for i := range out {
		out[i] = make([]float64, nn)
		if i < len(m) {
			copy(out[i], m[i])
		}
	}
	return out
}

// requirePlansIdentical pins a derived allocator's cold Plan output
// bit-for-bit to a freshly built one across several requesters.
func requirePlansIdentical(t *testing.T, got, want *Allocator, v []float64, label string) {
	t.Helper()
	n := want.N()
	for r := 0; r < n; r++ {
		amount := want.Capacities(v)[r] * 0.3
		pg, eg := got.Plan(v, r, amount)
		pw, ew := want.Plan(v, r, amount)
		if (eg == nil) != (ew == nil) {
			t.Fatalf("%s: requester %d: err %v vs rebuild err %v", label, r, eg, ew)
		}
		if eg != nil {
			continue
		}
		for i := 0; i < n; i++ {
			if pg.Take[i] != pw.Take[i] || pg.NewV[i] != pw.NewV[i] { //lint:ignore sharingvet/floateq the test pins bit-identical plans
				t.Fatalf("%s: requester %d: Take[%d]=%v NewV[%d]=%v, rebuild %v / %v",
					label, r, i, pg.Take[i], i, pg.NewV[i], pw.Take[i], pw.NewV[i])
			}
		}
		if pg.Theta != pw.Theta { //lint:ignore sharingvet/floateq the test pins bit-identical plans
			t.Fatalf("%s: requester %d: Theta %v, rebuild %v", label, r, pg.Theta, pw.Theta)
		}
	}
}

// TestSetShareMatchesRebuild drives a random schedule of relative
// agreement edits and pins the derived allocator — flow coefficients,
// capacities, and full Plan output — bit-for-bit to NewAllocator over
// the mutated matrix at every step.
func TestSetShareMatchesRebuild(t *testing.T) {
	for _, cfg := range []Config{{Level: 3}, {}, {Approx: true}} {
		rng := rand.New(rand.NewSource(11))
		s, v := mutateScenario(rng, 12, 20)
		al, err := NewAllocator(cloneMatrix(s), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 25; step++ {
			from, to := rng.Intn(12), rng.Intn(12)
			if from == to {
				continue
			}
			var nv float64
			if rng.Intn(4) == 0 {
				nv = 0 // occasionally revoke the edge entirely
			} else {
				nv = 0.05 + 0.4*rng.Float64()
			}
			d, err := al.SetShare(from, to, s[from][to], nv)
			if err != nil {
				t.Fatalf("cfg %+v step %d: SetShare: %v", cfg, step, err)
			}
			s[from][to] = nv
			rebuilt, err := NewAllocator(cloneMatrix(s), nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			kd, kw := d.FlowCoefficients(), rebuilt.FlowCoefficients()
			for i := range kw {
				if !floatsIdentical(kd[i], kw[i]) {
					t.Fatalf("cfg %+v step %d: K row %d diverged", cfg, step, i)
				}
			}
			if !floatsIdentical(d.conn, rebuilt.conn) {
				t.Fatalf("cfg %+v step %d: conn diverged", cfg, step)
			}
			if !floatsIdentical(d.Capacities(v), rebuilt.Capacities(v)) {
				t.Fatalf("cfg %+v step %d: capacities diverged", cfg, step)
			}
			if step%5 == 0 {
				requirePlansIdentical(t, d, rebuilt, v, "SetShare")
			}
			al = d
		}
	}
}

// TestSetAgreementMatchesRebuild covers absolute-agreement mutations:
// growing A from nil, value-only moves (which must share every
// skeleton), and sparsity flips.
func TestSetAgreementMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s, v := mutateScenario(rng, 10, 16)
	a := cloneMatrix(s) // just for the shape; rewrite values
	for i := range a {
		for j := range a[i] {
			a[i][j] = 0
		}
	}
	a[2][7] = 5
	a[4][1] = 3
	al, err := NewAllocator(cloneMatrix(s), cloneMatrix(a), Config{Level: 2})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 20; step++ {
		from, to := rng.Intn(10), rng.Intn(10)
		if from == to {
			continue
		}
		var nv float64
		if rng.Intn(3) > 0 {
			nv = 1 + 6*rng.Float64()
		}
		valueOnly := a[from][to] > 0 && nv > 0
		d, err := al.SetAgreement(from, to, a[from][to], nv)
		if err != nil {
			t.Fatalf("step %d: SetAgreement: %v", step, err)
		}
		if valueOnly && d != al {
			for i := 0; i < 10; i++ {
				// The slot itself is shared, so a skeleton either side
				// builds later serves both.
				if &d.skel[i] != &al.skel[i] {
					t.Fatalf("step %d: value-only A change rebuilt skeleton %d", step, i)
				}
			}
		}
		a[from][to] = nv
		rebuilt, err := NewAllocator(cloneMatrix(s), cloneMatrix(a), Config{Level: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !floatsIdentical(d.Capacities(v), rebuilt.Capacities(v)) {
			t.Fatalf("step %d: capacities diverged", step)
		}
		if step%4 == 0 {
			requirePlansIdentical(t, d, rebuilt, v, "SetAgreement")
		}
		al = d
	}
}

// TestGrowMatchesRebuild extends an allocator by fresh principals and
// pins it to a rebuild over the zero-extended matrices, then mutates an
// edge touching the new principal.
func TestGrowMatchesRebuild(t *testing.T) {
	for _, cfg := range []Config{{}, {Approx: true}} {
		rng := rand.New(rand.NewSource(3))
		s, _ := mutateScenario(rng, 8, 14)
		al, err := NewAllocator(cloneMatrix(s), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		d := al.Grow(2)
		if d.N() != 10 {
			t.Fatalf("cfg %+v: grew to %d principals, want 10", cfg, d.N())
		}
		sBig := growSquare(s, 10)
		v := make([]float64, 10)
		for i := range v {
			v[i] = 15 + 30*rng.Float64()
		}
		rebuilt, err := NewAllocator(cloneMatrix(sBig), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requirePlansIdentical(t, d, rebuilt, v, "Grow")

		// The new principal starts sharing: goes through the delta path.
		d2, err := d.SetShare(9, 0, 0, 0.35)
		if err != nil {
			t.Fatal(err)
		}
		sBig[9][0] = 0.35
		rebuilt2, err := NewAllocator(cloneMatrix(sBig), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requirePlansIdentical(t, d2, rebuilt2, v, "Grow+SetShare")
	}
}

// TestMutatorCOW checks the receiver of a mutation stays fully valid:
// its plans still match a rebuild over the *old* matrices.
func TestMutatorCOW(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s, v := mutateScenario(rng, 10, 18)
	al, err := NewAllocator(cloneMatrix(s), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	from, to := 1, 6
	if _, err := al.SetShare(from, to, s[from][to], 0.44); err != nil {
		t.Fatal(err)
	}
	rebuiltOld, err := NewAllocator(cloneMatrix(s), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	requirePlansIdentical(t, al, rebuiltOld, v, "receiver after SetShare")
	if !num.IsZero(al.Share(from, to) - s[from][to]) {
		t.Fatalf("receiver S mutated: %v", al.Share(from, to))
	}
}

// TestSetShareErrors covers staleness detection and the budget refusal.
func TestSetShareErrors(t *testing.T) {
	s, _ := mutateScenario(rand.New(rand.NewSource(1)), 6, 10)
	al, err := NewAllocator(cloneMatrix(s), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := al.SetShare(0, 1, s[0][1]+0.2, 0.3); err == nil {
		t.Fatal("stale old value accepted")
	}
	if _, err := al.SetShare(0, 0, 0, 0.3); err == nil {
		t.Fatal("diagonal share accepted")
	}
	if d, err := al.SetShare(0, 1, s[0][1], s[0][1]); err != nil || d != al {
		t.Fatalf("no-op share: d=%p al=%p err=%v", d, al, err)
	}

	// Densify an exact allocator past the budget: the mutation must be
	// refused with ErrBudget, like NewAllocator refuses to build the
	// densified graph, and the receiver must go on planning. The seed is a
	// complete graph of 12 principals (5 M steps: its rows are summed by
	// the subset DP) beside a chain of 5; one share from the clique to the
	// chain's head makes every clique row reach 17 principals, past the
	// DP's table, and 12 principals' chains cannot be enumerated.
	n := 17
	dense := make([][]float64, n)
	for i := range dense {
		dense[i] = make([]float64, n)
		for j := range dense[i] {
			if i != j && i < 12 && j < 12 {
				dense[i][j] = 0.07
			}
		}
		if i >= 12 && i+1 < n {
			dense[i][i+1] = 0.5
		}
	}
	cur, err := NewAllocator(cloneMatrix(dense), nil, Config{})
	if err != nil {
		t.Fatalf("clique seed refused: %v", err)
	}
	if _, err := cur.SetShare(0, 12, 0, 0.07); !errors.Is(err, transitive.ErrBudget) {
		t.Fatalf("densify: %v, want ErrBudget", err)
	}
	dense[0][12] = 0.07
	_, err = NewAllocator(dense, nil, Config{})
	if !errors.Is(err, transitive.ErrBudget) || !strings.Contains(err.Error(), "would exceed 50000000 steps for this agreement graph; set Config.Approx or lower Config.Level") {
		t.Fatalf("building the densified graph: %v, want the budget refusal", err)
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = 10
	}
	if _, err := cur.Plan(v, 3, 12); err != nil {
		t.Fatalf("receiver after the refused share: %v", err)
	}
}
