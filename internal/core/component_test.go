package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/agreement"
)

// The ComponentLP formulation pins every principal outside the
// requester's agreement column and folds its terms into the right-hand
// sides, so the optimum — the value and, away from degenerate ties, the
// vertex — must match the full substituted LP. These tests pin that
// equivalence on the block scenarios the sparse benches use, across
// requesters, amounts, and incremental mutations.

// sparseBlockScenario is sparse1000Scenario at an arbitrary size: chains
// of relative agreements in blocks of 8 with one absolute back-edge.
func sparseBlockScenario(n int, seed int64) (s, a *agreement.SparseMatrix, v []float64) {
	const block = 8
	rng := rand.New(rand.NewSource(seed))
	sb := agreement.NewSparseBuilder(n)
	ab := agreement.NewSparseBuilder(n)
	for start := 0; start < n; start += block {
		for j := start; j+1 < start+block && j+1 < n; j++ {
			sb.Add(j, j+1, 0.1+rng.Float64()*0.3)
		}
		end := start + block
		if end > n {
			end = n
		}
		if end-start >= 2 {
			ab.Add(end-1, start, 1+rng.Float64()*3)
		}
	}
	v = make([]float64, n)
	for i := range v {
		v[i] = 50 + rng.Float64()*50
	}
	return sb.Build(), ab.Build(), v
}

// comparePlans runs the same request through both allocators and checks
// the outcomes agree: same feasibility, same objective, same takes.
func comparePlans(t *testing.T, full, comp *Allocator, v []float64, requester int, amount float64) {
	t.Helper()
	pf, errF := full.Plan(v, requester, amount)
	pc, errC := comp.Plan(v, requester, amount)
	if (errF == nil) != (errC == nil) {
		t.Fatalf("req %d amount %g: full err %v, component err %v", requester, amount, errF, errC)
	}
	if errF != nil {
		// Both refused; the classification must agree too (insufficiency
		// vs. an infeasible LP).
		if errors.Is(errF, ErrInsufficient) != errors.Is(errC, ErrInsufficient) {
			t.Fatalf("req %d amount %g: refusal classes differ: %v / %v", requester, amount, errF, errC)
		}
		return
	}
	if math.Abs(pf.Theta-pc.Theta) > 1e-6 {
		t.Fatalf("req %d amount %g: theta %g (full) vs %g (component)", requester, amount, pf.Theta, pc.Theta)
	}
	var sum float64
	for i := range pc.Take {
		if math.Abs(pf.Take[i]-pc.Take[i]) > 1e-6 {
			t.Fatalf("req %d amount %g: take[%d] %g (full) vs %g (component)", requester, amount, i, pf.Take[i], pc.Take[i])
		}
		if math.Abs(pf.NewV[i]-pc.NewV[i]) > 1e-6 {
			t.Fatalf("req %d amount %g: newV[%d] %g (full) vs %g (component)", requester, amount, i, pf.NewV[i], pc.NewV[i])
		}
		if pc.Take[i] < -1e-9 {
			t.Fatalf("req %d amount %g: negative take[%d] = %g", requester, amount, i, pc.Take[i])
		}
		sum += pc.Take[i]
	}
	if math.Abs(sum-amount) > 1e-6 {
		t.Fatalf("req %d amount %g: component takes sum to %g", requester, amount, sum)
	}
}

func TestComponentLPMatchesFull(t *testing.T) {
	s, a, v := sparseBlockScenario(200, 23)
	full, err := NewAllocatorSparse(s, a, Config{Level: 5})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := NewAllocatorSparse(s, a, Config{Level: 5, ComponentLP: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	requesters := []int{0, 3, 7, 8, 15, 96, 103, 192, 199}
	for i := 0; i < 8; i++ {
		requesters = append(requesters, rng.Intn(200))
	}
	for _, r := range requesters {
		for _, amount := range []float64{1, v[r] * 0.5, v[r], v[r] * 1.4, v[r] * 50} {
			comparePlans(t, full, comp, v, r, amount)
		}
	}
}

// TestComponentLPDenseScenario drives the dense all-to-all bench shape,
// where every principal is in every component: the component model
// degenerates to the full one and must still agree.
func TestComponentLPDenseScenario(t *testing.T) {
	s, v := benchScenario(10)
	full, err := NewAllocator(s, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := NewAllocator(s, nil, Config{ComponentLP: true})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 10; r++ {
		comparePlans(t, full, comp, v, r, 30)
	}
}

// TestComponentLPMutations pins the skeleton-invalidation discipline:
// after relative value moves, relative sparsity flips, and absolute
// flips — interleaved with plans that populate the caches — the
// component allocator must keep matching a freshly built full one.
func TestComponentLPMutations(t *testing.T) {
	s, a, v := sparseBlockScenario(48, 11)
	comp, err := NewAllocatorSparse(s, a, Config{Level: 5, ComponentLP: true})
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		full, err := NewAllocator(comp.Shares(), comp.denseA(), Config{Level: 5})
		if err != nil {
			t.Fatalf("%s: rebuild: %v", stage, err)
		}
		for _, r := range []int{0, 1, 7, 8, 40, 47} {
			comparePlans(t, full, comp, v, r, v[r]*0.9)
		}
	}
	check("initial")

	// Relative value move inside an existing edge.
	comp, err = comp.SetShare(0, 1, comp.Share(0, 1), 0.35)
	if err != nil {
		t.Fatal(err)
	}
	check("share value move")

	// Relative sparsity flip: a brand-new cross-block edge.
	comp, err = comp.SetShare(8, 40, 0, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	check("share flip on")

	// Absolute sparsity flip on: requester 1 gains a new source column
	// entry, which must rebuild its component skeleton.
	comp, err = comp.SetAgreement(40, 1, 0, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	check("agreement flip on")

	// Absolute value-only move: skeletons survive, RHS refolds per solve.
	comp, err = comp.SetAgreement(40, 1, 2.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	check("agreement value move")

	// Absolute flip off again.
	comp, err = comp.SetAgreement(40, 1, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	check("agreement flip off")
}
