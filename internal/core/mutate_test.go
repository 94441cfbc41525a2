package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/agreement"
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
			for i := range rebuilt.flow {
				if !num.IsZero(d.flow[i].conn - rebuilt.flow[i].conn) {
					t.Fatalf("cfg %+v step %d: conn[%d] diverged", cfg, step, i)
				}
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

// churnVariants calls fn with the four allocators the invalidation tests
// look at — the full formulation and ComponentLP, with the blocks' absolute
// back-edges and without — over two blocks of eight, each a chain of
// relative agreements, after every requester has planned once, so every
// skeleton slot is filled.
func churnVariants(t *testing.T, fn func(label string, al *Allocator, v []float64)) {
	s, a, v := sparseBlockScenario(16, 3)
	for _, comp := range []bool{false, true} {
		for _, withA := range []bool{false, true} {
			sa := a
			if !withA {
				sa = nil
			}
			al, err := NewAllocatorSparse(s, sa, Config{ComponentLP: comp})
			if err != nil {
				t.Fatal(err)
			}
			for r := range v {
				if _, err := al.Plan(v, r, 1.5); err != nil {
					t.Fatal(err)
				}
			}
			fn(fmt.Sprintf("ComponentLP %v, A %v", comp, withA), al, v)
		}
	}
}

// rebuilt is a fresh NewAllocatorSparse over al's current agreements.
func rebuilt(t *testing.T, al *Allocator) *Allocator {
	t.Helper()
	sb, ab := agreement.NewSparseBuilder(al.n), agreement.NewSparseBuilder(al.n)
	for i := 0; i < al.n; i++ {
		for j := 0; j < al.n; j++ {
			sb.Add(i, j, al.Share(i, j)) // Build drops the zeros
			ab.Add(i, j, al.Agreement(i, j))
		}
	}
	var a *agreement.SparseMatrix
	if al.hasA {
		a = ab.Build()
	}
	fresh, err := NewAllocatorSparse(sb.Build(), a, al.cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fresh
}

// sameSkeletons reports whether d holds al's skeleton table: the same slots,
// so every skeleton either builds serves both.
func sameSkeletons(d, al *Allocator) bool { return &d.skel[0] == &al.skel[0] }

// TestValueChurnKeepsSkeletons moves agreement values without flipping a
// cell between zero and nonzero — a chain's head sharing half as much, which
// moves K and conn in all eight columns of its block, and an absolute
// back-edge raised — in every variant: the derived allocator keeps the
// receiver's skeleton table, the model clones built from it are rebound, and
// every plan equals a fresh build's bit for bit.
func TestValueChurnKeepsSkeletons(t *testing.T) {
	churnVariants(t, func(label string, al *Allocator, v []float64) {
		built := make([]*planSkeleton, al.n)
		for r := range built {
			built[r] = al.skel[r].Load()
		}
		step := func(what string, d *Allocator, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s, %s: %v", label, what, err)
			}
			if !sameSkeletons(d, al) {
				t.Fatalf("%s, %s: the derived allocator dropped the skeletons", label, what)
			}
			for r, sk := range built {
				if d.skel[r].Load() != sk {
					t.Fatalf("%s, %s: skeleton %d was replaced", label, what, r)
				}
			}
			requirePlansIdentical(t, d, rebuilt(t, d), v, label+", "+what)
			al = d
		}
		d, err := al.SetShare(0, 1, al.Share(0, 1), al.Share(0, 1)/2)
		step("a share halved", d, err)
		if al.hasA {
			d, err = al.SetAgreement(7, 0, al.Agreement(7, 0), al.Agreement(7, 0)+1)
			step("an absolute agreement raised", d, err)
		}
		d, err = al.SetShare(9, 10, al.Share(9, 10), 0.95)
		step("a share raised in the other block", d, err)
	})
}

// TestPatternFlipDropsSkeletons makes every kind of change that flips a
// cell — a K entry appearing and vanishing, under a cap_flow row too (the
// last principal of a block closing its chain into a ring, where the
// block's absolute back-edge already is), an absolute agreement appearing
// and vanishing, and Grow — and checks each drops the skeleton table, the
// derived allocator planning every requester as a fresh build does.
func TestPatternFlipDropsSkeletons(t *testing.T) {
	churnVariants(t, func(label string, al *Allocator, v []float64) {
		step := func(what string, d *Allocator, err error, kept int) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s, %s: %v", label, what, err)
			}
			if sameSkeletons(d, al) {
				t.Fatalf("%s, %s: the derived allocator kept the skeleton table", label, what)
			}
			for r := range d.skel {
				if sk := d.skel[r].Load(); sk != nil && r != kept {
					t.Fatalf("%s, %s: skeleton %d survived", label, what, r)
				}
			}
			if len(v) < d.n {
				v = append(v, 6.5)
			}
			requirePlansIdentical(t, d, rebuilt(t, d), v, label+", "+what)
			for r := range v {
				if _, err := d.Plan(v, r, 1.5); err != nil { // refill the slots for the next step
					t.Fatal(err)
				}
			}
			al = d
		}
		d, err := al.SetShare(7, 0, 0, 0.25)
		step("a ring closed", d, err, -1)
		d, err = al.SetShare(7, 0, 0.25, 0)
		step("the ring opened again", d, err, -1)
		d, err = al.SetShare(3, 4, al.Share(3, 4), 0)
		step("a chain cut", d, err, -1)
		d, err = al.SetShare(7, 8, 0, 0.2)
		step("two blocks bridged", d, err, -1)
		kept := 5 // requester 5 has no perturb_5 row; its live set is column 5 under ComponentLP
		if al.cfg.ComponentLP {
			kept = -1
		}
		d, err = al.SetAgreement(2, 5, 0, 1.5)
		step("an absolute agreement made", d, err, kept)
		d, err = al.SetAgreement(2, 5, 1.5, 0)
		step("an absolute agreement revoked", d, err, kept)
		step("a principal registered", al.Grow(1), nil, -1)
	})
}

// TestPatchLeavesDerivationsAlone takes persistent derivations of an
// allocator — SetShare's before it is patched with PatchShare, and
// SetAgreement's before PatchAgreement, as the ownership rule allows: each
// result owns what the patch writes — and
// then patches the receiver in place through value moves and pattern flips
// on the very rows and columns the derivations share with it: a ring closed
// and opened, a chain cut, two blocks bridged, an absolute agreement made,
// raised and revoked. Every derivation must still plan as a fresh build of
// its matrices taken before the patches did, bit for bit, and still hold
// those matrices; the patched allocator must plan as a fresh build of its
// own.
func TestPatchLeavesDerivationsAlone(t *testing.T) {
	churnVariants(t, func(label string, al *Allocator, v []float64) {
		type derivation struct {
			what    string
			d, want *Allocator
		}
		var kept []derivation
		derive := func(what string) func(*Allocator, error) {
			return func(d *Allocator, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s, %s: %v", label, what, err)
				}
				for r := range v {
					if _, err := d.Plan(v, r, 1.5); err != nil { // fill the skeleton slots it shares
						t.Fatal(err)
					}
				}
				kept = append(kept, derivation{what, d, rebuilt(t, d)})
			}
		}
		patch := func(what string, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s, %s: %v", label, what, err)
			}
			for _, k := range kept {
				requirePlansIdentical(t, k.d, k.want, v, label+", "+k.what+" after the patch "+what)
				requirePlansIdentical(t, rebuilt(t, k.d), k.want, v, label+", the matrices of "+k.what+" after the patch "+what)
			}
			requirePlansIdentical(t, al, rebuilt(t, al), v, label+", patched: "+what)
		}
		derive("a share moved")(al.SetShare(0, 1, al.Share(0, 1), al.Share(0, 1)/2))
		derive("a ring closed")(al.SetShare(7, 0, 0, 0.25))
		patch("a share moved", al.PatchShare(0, 1, al.Share(0, 1), al.Share(0, 1)*0.75))
		patch("a ring closed", al.PatchShare(7, 0, 0, 0.3))
		patch("the ring opened", al.PatchShare(7, 0, 0.3, 0))
		patch("a chain cut", al.PatchShare(3, 4, al.Share(3, 4), 0))
		patch("two blocks bridged", al.PatchShare(7, 8, 0, 0.2))
		// SetShare's results share A's tables with al, which PatchAgreement
		// writes: the rule has them dropped first.
		kept = kept[:0]
		derive("an absolute agreement made")(al.SetAgreement(2, 5, 0, 1.5))
		derive("an absolute agreement raised")(al.SetAgreement(15, 8, al.Agreement(15, 8), al.Agreement(15, 8)+1))
		patch("an absolute agreement made", al.PatchAgreement(2, 5, 0, 2.5))
		patch("an absolute agreement raised", al.PatchAgreement(15, 8, al.Agreement(15, 8), al.Agreement(15, 8)+2))
		patch("an absolute agreement revoked", al.PatchAgreement(2, 5, 2.5, 0))
	})
}
