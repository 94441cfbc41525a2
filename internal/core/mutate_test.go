package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/agreement"
	"repro/internal/num"
	"repro/internal/transitive"
)

// mutateScenario builds a sparse random agreement system large enough
// that patching rows in place matters but small enough for exact
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

// requirePlansIdentical pins a patched allocator's Plan output bit-for-bit
// to a freshly built one across several requesters.
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
			if pg.Take[i] != pw.Take[i] || pg.NewV[i] != pw.NewV[i] {
				t.Fatalf("%s: requester %d: Take[%d]=%v NewV[%d]=%v, rebuild %v / %v",
					label, r, i, pg.Take[i], i, pg.NewV[i], pw.Take[i], pw.NewV[i])
			}
		}
		if pg.Theta != pw.Theta {
			t.Fatalf("%s: requester %d: Theta %v, rebuild %v", label, r, pg.Theta, pw.Theta)
		}
	}
}

// TestSetShareMatchesRebuild drives a random schedule of relative
// agreement edits patched in place (PatchShare) and pins the allocator —
// flow coefficients, capacities, and full Plan output — bit-for-bit to
// NewAllocator over the mutated matrix at every step.
func TestSetShareMatchesRebuild(t *testing.T) {
	for _, cfg := range []Config{{Level: 3}, {}} {
		rng := rand.New(rand.NewSource(11))
		s, v := mutateScenario(rng, 12, 20)
		al, err := NewAllocator(sparse(cloneMatrix(s)), nil, cfg)
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
			if err := al.PatchShare(from, to, s[from][to], nv); err != nil {
				t.Fatalf("cfg %+v step %d: PatchShare: %v", cfg, step, err)
			}
			s[from][to] = nv
			rebuilt, err := NewAllocator(sparse(cloneMatrix(s)), nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			kd, kw := al.FlowCoefficients(), rebuilt.FlowCoefficients()
			for i := range kw {
				if !floatsIdentical(kd[i], kw[i]) {
					t.Fatalf("cfg %+v step %d: K row %d diverged", cfg, step, i)
				}
			}
			for i := range rebuilt.flow {
				if !num.IsZero(al.flow[i].conn - rebuilt.flow[i].conn) {
					t.Fatalf("cfg %+v step %d: conn[%d] diverged", cfg, step, i)
				}
			}
			if !floatsIdentical(al.Capacities(v), rebuilt.Capacities(v)) {
				t.Fatalf("cfg %+v step %d: capacities diverged", cfg, step)
			}
			if step%5 == 0 {
				requirePlansIdentical(t, al, rebuilt, v, "PatchShare")
			}
		}
	}
}

// TestSetAgreementMatchesRebuild covers absolute-agreement mutations
// patched in place (PatchAgreement): growing A from nil, value-only moves
// and sparsity flips.
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
	al, err := NewAllocator(sparse(cloneMatrix(s)), sparse(cloneMatrix(a)), Config{Level: 2})
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
		if err := al.PatchAgreement(from, to, a[from][to], nv); err != nil {
			t.Fatalf("step %d: PatchAgreement: %v", step, err)
		}
		a[from][to] = nv
		rebuilt, err := NewAllocator(sparse(cloneMatrix(s)), sparse(cloneMatrix(a)), Config{Level: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !floatsIdentical(al.Capacities(v), rebuilt.Capacities(v)) {
			t.Fatalf("step %d: capacities diverged", step)
		}
		if step%4 == 0 {
			requirePlansIdentical(t, al, rebuilt, v, "PatchAgreement")
		}
	}
}

// TestGrowMatchesRebuild extends an allocator in place by fresh principals
// and pins it to a rebuild over the zero-extended matrices, then patches an
// edge touching the new principal.
func TestGrowMatchesRebuild(t *testing.T) {
	for _, cfg := range []Config{{}, {Level: 3}} {
		rng := rand.New(rand.NewSource(3))
		s, _ := mutateScenario(rng, 8, 14)
		al, err := NewAllocator(sparse(cloneMatrix(s)), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		al.Grow(2)
		if al.N() != 10 {
			t.Fatalf("cfg %+v: grew to %d principals, want 10", cfg, al.N())
		}
		sBig := growSquare(s, 10)
		v := make([]float64, 10)
		for i := range v {
			v[i] = 15 + 30*rng.Float64()
		}
		rebuilt, err := NewAllocator(sparse(cloneMatrix(sBig)), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requirePlansIdentical(t, al, rebuilt, v, "Grow")

		// The new principal starts sharing: goes through the delta path.
		if err := al.PatchShare(9, 0, 0, 0.35); err != nil {
			t.Fatal(err)
		}
		sBig[9][0] = 0.35
		rebuilt2, err := NewAllocator(sparse(cloneMatrix(sBig)), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requirePlansIdentical(t, al, rebuilt2, v, "Grow+PatchShare")
	}
}

// TestSetShareErrors covers staleness detection and the budget refusal.
func TestSetShareErrors(t *testing.T) {
	s, sv := mutateScenario(rand.New(rand.NewSource(1)), 6, 10)
	al, err := NewAllocator(sparse(cloneMatrix(s)), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := al.PatchShare(0, 1, s[0][1]+0.2, 0.3); err == nil {
		t.Fatal("stale old value accepted")
	}
	if err := al.PatchShare(0, 0, 0, 0.3); err == nil {
		t.Fatal("diagonal share accepted")
	}
	if err := al.PatchShare(0, 1, s[0][1], s[0][1]); err != nil {
		t.Fatalf("no-op share: %v", err)
	}
	requirePlansIdentical(t, al, rebuilt(t, al), sv, "after the refusals and the no-op")

	// Densify an exact allocator past the budget: the mutation must be
	// refused with ErrBudget, like NewAllocator refuses to build the
	// densified graph — patched in place, and through SetShare, whose
	// receiver must go on planning. The seed is a
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
	cur, err := NewAllocator(sparse(cloneMatrix(dense)), nil, Config{})
	if err != nil {
		t.Fatalf("clique seed refused: %v", err)
	}
	if _, err := cur.SetShare(0, 12, 0, 0.07); !errors.Is(err, transitive.ErrBudget) {
		t.Fatalf("densify: %v, want ErrBudget", err)
	}
	patched, err := NewAllocator(sparse(cloneMatrix(dense)), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := patched.PatchShare(0, 12, 0, 0.07); !errors.Is(err, transitive.ErrBudget) {
		t.Fatalf("densify in place: %v, want ErrBudget", err)
	}
	dense[0][12] = 0.07
	_, err = NewAllocator(sparse(dense), nil, Config{})
	if !errors.Is(err, transitive.ErrBudget) || !strings.Contains(err.Error(), "would exceed 50000000 steps for this agreement graph; lower Config.Level (grmd -level)") {
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

// churnVariants calls fn with the four allocators the write tests look at —
// the full formulation and ComponentLP, with the blocks' absolute
// back-edges and without — over two blocks of eight, each a chain of
// relative agreements, after every requester has planned once. Whatever fn writes into them, the matrices they
// were built from must stay as they were, bit for bit.
func churnVariants(t *testing.T, fn func(label string, al *Allocator, v []float64)) {
	s, a, v := sparseBlockScenario(16, 3)
	inS, inA := denseOf(s.N(), s.At), denseOf(a.N(), a.At)
	defer func() {
		if !slices.EqualFunc(denseOf(s.N(), s.At), inS, sameBits) || !slices.EqualFunc(denseOf(a.N(), a.At), inA, sameBits) {
			t.Errorf("the writes reached the matrices the allocators were built from")
		}
	}()
	for _, comp := range []bool{false, true} {
		for _, withA := range []bool{false, true} {
			sa := a
			if !withA {
				sa = nil
			}
			al, err := NewAllocator(s, sa, Config{ComponentLP: comp})
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

// rebuilt is a fresh NewAllocator over al's current agreements.
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
	fresh, err := NewAllocator(sb.Build(), a, al.cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fresh
}

// TestValueChurnKeepsSkeletons moves agreement values in place without
// flipping a cell between zero and nonzero — a chain's head sharing half as
// much, which moves K and conn in all eight columns of its block, and an
// absolute back-edge raised — in every variant, after every requester has
// planned: every plan equals a fresh build's bit for bit. (The name is
// historical: the plans once kept per-requester LP skeletons, which a
// value-only write had to keep.)
func TestValueChurnKeepsSkeletons(t *testing.T) {
	churnVariants(t, func(label string, al *Allocator, v []float64) {
		step := func(what string, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s, %s: %v", label, what, err)
			}
			requirePlansIdentical(t, al, rebuilt(t, al), v, label+", "+what)
		}
		step("a share halved", al.PatchShare(0, 1, al.Share(0, 1), al.Share(0, 1)/2))
		if al.hasA {
			step("an absolute agreement raised", al.PatchAgreement(7, 0, al.Agreement(7, 0), al.Agreement(7, 0)+1))
		}
		step("a share raised in the other block", al.PatchShare(9, 10, al.Share(9, 10), 0.95))
	})
}

// TestPatternFlipDropsSkeletons makes every kind of change that flips a
// cell — a K entry appearing and vanishing, under a cap_flow row too (the
// last principal of a block closing its chain into a ring, where the
// block's absolute back-edge already is), an absolute agreement appearing
// and vanishing, and Grow, twice — in place, each after every requester has
// planned, and checks the allocator then plans every requester as a fresh
// build does. (The name is historical: such a write once dropped the
// per-requester LP skeletons the plans kept.)
func TestPatternFlipDropsSkeletons(t *testing.T) {
	churnVariants(t, func(label string, al *Allocator, v []float64) {
		step := func(what string, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s, %s: %v", label, what, err)
			}
			if len(v) < al.n {
				v = append(v, 6.5)
			}
			requirePlansIdentical(t, al, rebuilt(t, al), v, label+", "+what)
			for r := range v {
				if _, err := al.Plan(v, r, 1.5); err != nil {
					t.Fatal(err)
				}
			}
		}
		step("a ring closed", al.PatchShare(7, 0, 0, 0.25))
		step("the ring opened again", al.PatchShare(7, 0, 0.25, 0))
		step("a chain cut", al.PatchShare(3, 4, al.Share(3, 4), 0))
		step("two blocks bridged", al.PatchShare(7, 8, 0, 0.2))
		step("an absolute agreement made", al.PatchAgreement(2, 5, 0, 1.5))
		step("an absolute agreement revoked", al.PatchAgreement(2, 5, 1.5, 0))
		al.Grow(1)
		step("a principal registered", nil)
		al.Grow(1) // into the room the first left
		step("a second principal registered", nil)
	})
}
