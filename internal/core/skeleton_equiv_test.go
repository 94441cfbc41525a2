package core_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/modeltest"
)

// skeletonVariants yields, for one generated graph, every allocator the
// equivalence tests look at: with the graph's absolute agreements and
// without any (a graph generated without gets a few synthesized, so both
// sides of hasA are seen on every graph), under the full formulation and
// ComponentLP.
func skeletonVariants(g *modeltest.Graph, fn func(a [][]float64, cfg core.Config, al *core.Allocator)) {
	withA := g.A
	if withA == nil {
		withA = make([][]float64, g.N)
		for i := range withA {
			withA[i] = make([]float64, g.N)
			if i%2 == 0 {
				withA[i][(i+1)%g.N] = 0.5 + float64(i)
			}
		}
	}
	for _, a := range [][][]float64{nil, withA} {
		for _, comp := range []bool{false, true} {
			cfg := core.Config{Level: g.Level, ComponentLP: comp}
			al, err := core.NewAllocator(g.S, a, cfg)
			if err != nil {
				continue // the closure budget refused the graph
			}
			fn(a, cfg, al)
		}
	}
}

// samePlans fails unless got and want plan every requester the same, bit
// for bit: same sources, takes and θ, or the same refusal.
func samePlans(t *testing.T, label string, got, want *core.Allocator, v []float64) {
	t.Helper()
	caps := want.Capacities(v)
	for r := range v {
		for _, amount := range []float64{0, caps[r] / 4, caps[r] / 2, caps[r], caps[r] + 3} {
			gs, gt, gth, gerr := got.PlanPairs(nil, nil, v, r, amount)
			ws, wt, wth, werr := want.PlanPairs(nil, nil, v, r, amount)
			if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
				t.Fatalf("%s: requester %d amount %v: %v, reference %v", label, r, amount, gerr, werr)
			}
			if !slices.Equal(gs, ws) || !core.SameBits(gt, wt) || math.Float64bits(gth) != math.Float64bits(wth) {
				t.Fatalf("%s: requester %d amount %v plans %v %v θ=%v, reference %v %v θ=%v",
					label, r, amount, gs, gt, gth, ws, wt, wth)
			}
		}
	}
}

// TestSkeletonEqualsReference checks the one-pass, one-arena builder against
// the builder it replaced (kept in skeleton_ref_test.go) over the generated
// taxonomy — all five shapes × {full, ComponentLP} × with/without A: the
// same variables in the same order with the same names, bounds and
// objective, the same rows term for term with the same relation, right-hand
// side and name, the same row bookkeeping; and every plan through it equal
// bit for bit to the plan through the reference's.
func TestSkeletonEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	cases := 150
	if testing.Short() {
		cases = 40
	}
	shapes := map[modeltest.Shape]int{}
	skeletons := 0
	for c := 0; c < cases; c++ {
		g := modeltest.Generate(rng)
		shapes[g.Shape]++
		skeletonVariants(g, func(a [][]float64, cfg core.Config, al *core.Allocator) {
			for r := 0; r < g.N; r++ {
				if diff := al.SkeletonDiff(r); diff != "" {
					t.Fatalf("case %d %+v (A: %v) requester %d: %s\n%s", c, cfg, a != nil, r, diff, g)
				}
				skeletons++
			}
			samePlans(t, "served against reference skeletons", al, al.WithReferenceSkeletons(), g.V)
		})
	}
	if len(shapes) != 5 {
		t.Fatalf("generator covered shapes %v, want all five", shapes)
	}
	t.Logf("%d skeletons equal over shapes %v", skeletons, shapes)
}

// TestDerivationChainEqualsFresh walks every variant through a chain of
// SetShare, SetAgreement and Grow derivations — edges created, halved,
// moved and removed, quantities created, raised and removed, a principal
// added and wired in — and after every step requires the derived allocator
// to hold the column lists a fresh NewAllocatorSparse over the mutated
// matrices builds, the skeletons the reference builds, and to plan the
// same. Value-only steps, which flip no cell, must also keep the skeletons
// the plans before them built: the plans after them run on those, rebound.
func TestDerivationChainEqualsFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cases := 40
	if testing.Short() {
		cases = 12
	}
	for c := 0; c < cases; c++ {
		g := modeltest.Generate(rng)
		skeletonVariants(g, func(a [][]float64, cfg core.Config, al *core.Allocator) {
			n := g.N
			s := cloneSquare(g.S, n)
			hasA := a != nil
			a = cloneSquare(a, n)
			v := slices.Clone(g.V)
			check := func(step string) {
				t.Helper()
				var sa *agreement.SparseMatrix
				if hasA {
					sa = toSparse(a)
				}
				fresh, err := core.NewAllocatorSparse(toSparse(s), sa, cfg)
				if err != nil {
					t.Fatalf("case %d %+v after %s: fresh build refused what the mutators accepted: %v\n%s", c, cfg, step, err, g)
				}
				if diff := core.ColumnsDiff(al, fresh); diff != "" {
					t.Fatalf("case %d %+v after %s: %s\n%s", c, cfg, step, diff, g)
				}
				for r := 0; r < n; r++ {
					if diff := al.SkeletonDiff(r); diff != "" {
						t.Fatalf("case %d %+v after %s, requester %d: %s\n%s", c, cfg, step, r, diff, g)
					}
				}
				samePlans(t, "derived against fresh after "+step, al, fresh, v)
			}
			setShare := func(i, j int, next float64) bool {
				d, err := al.SetShare(i, j, s[i][j], next)
				if err != nil {
					return false // the enumeration budget refused the denser graph
				}
				al, s[i][j] = d, next
				return true
			}
			setAgreement := func(i, j int, next float64) {
				d, err := al.SetAgreement(i, j, a[i][j], next)
				if err != nil {
					t.Fatalf("case %d %+v: SetAgreement(%d, %d, %v, %v): %v", c, cfg, i, j, a[i][j], next, err)
				}
				al, a[i][j], hasA = d, next, true
			}
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				j = (i + 1) % n
			}
			// valueOnly checks a step that moved values only.
			valueOnly := func(step string, prev *core.Allocator) {
				t.Helper()
				if !core.SharesSkeletons(al, prev) {
					t.Fatalf("case %d %+v: %s dropped the skeletons\n%s", c, cfg, step, g)
				}
				check(step)
			}
			if setShare(i, j, s[i][j]/2+0.125) {
				check("SetShare")
			}
			if prev := al; s[i][j] > 0 && setShare(i, j, s[i][j]*0.75) {
				valueOnly("SetShare moving a value", prev)
			}
			setAgreement(j, i, a[j][i]+1.5)
			check("SetAgreement creating an entry")
			prev := al
			setAgreement(j, i, a[j][i]+0.25)
			valueOnly("SetAgreement moving a value", prev)
			al, n = al.Grow(1), n+1
			s, a, v = cloneSquare(s, n), cloneSquare(a, n), append(v, 6.5)
			check("Grow")
			if setShare(n-1, i, 0.25) && setShare(j, n-1, 0.125) {
				check("SetShare wiring the new principal in")
				if prev := al; setShare(n-1, i, 0.5) {
					valueOnly("SetShare moving the new principal's share", prev)
				}
			}
			if setShare(i, j, 0) {
				check("SetShare removing an edge")
			}
			setAgreement(j, i, 0)
			check("SetAgreement removing an entry")
		})
	}
}

// cloneSquare copies m into a fresh n×n matrix, zero where m has no entry
// (m may be nil or smaller).
func cloneSquare(m [][]float64, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		if i < len(m) {
			copy(out[i], m[i])
		}
	}
	return out
}

func toSparse(m [][]float64) *agreement.SparseMatrix {
	b := agreement.NewSparseBuilder(len(m))
	for i, row := range m {
		for j, x := range row {
			if x != 0 {
				b.Add(i, j, x)
			}
		}
	}
	return b.Build()
}
