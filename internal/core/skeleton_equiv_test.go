package core_test

import (
	"fmt"
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
			al, err := core.NewAllocator(core.Sparse(g.S), core.Sparse(a), cfg)
			if err != nil {
				continue // the closure budget refused the graph
			}
			fn(a, cfg, al)
		}
	}
}

// planPairs is the signature of PlanPairs and ReferencePlanPairs.
type planPairs func(sources []int, takes []float64, v []float64, requester int, amount float64) ([]int, []float64, float64, error)

// amounts are the requests the equivalence tests make of a requester with
// capacity c: nothing, parts of it, all of it, and more than it.
func amounts(c float64) []float64 { return []float64{0, c / 4, c / 2, c, c + 3} }

// samePlans fails unless got and want plan every requester the same, bit
// for bit: same sources, takes and θ, or the same refusal. caps are the
// requesters' capacities.
func samePlans(t *testing.T, label string, got, want planPairs, caps, v []float64) {
	t.Helper()
	for r := range v {
		for _, amount := range amounts(caps[r]) {
			gs, gt, gth, gerr := got(nil, nil, v, r, amount)
			ws, wt, wth, werr := want(nil, nil, v, r, amount)
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

// TestSkeletonEqualsReference checks the one-pass build of a plan's LP,
// numbers included, against the two steps it replaced (kept in
// skeleton_ref_test.go): the reference skeleton builder, then rebind. Over
// the generated taxonomy — all five shapes × {full, ComponentLP} ×
// with/without A — and every requester and amount, the two models have the
// same variables in the same order with the same names, bounds and
// objective bits, the same rows term for term with the same relation,
// right-hand side and name, and the same row bookkeeping; and every plan
// through the one equals bit for bit the plan through the other.
func TestSkeletonEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	cases := 150
	if testing.Short() {
		cases = 40
	}
	shapes := map[modeltest.Shape]int{}
	models := 0
	for c := 0; c < cases; c++ {
		g := modeltest.Generate(rng)
		shapes[g.Shape]++
		skeletonVariants(g, func(a [][]float64, cfg core.Config, al *core.Allocator) {
			models += sameModels(t, fmt.Sprintf("case %d %+v (A: %v)", c, cfg, a != nil), al, g.V, g)
			samePlans(t, "served against reference models", al.PlanPairs, al.ReferencePlanPairs, al.Capacities(g.V), g.V)
		})
	}
	if len(shapes) != 5 {
		t.Fatalf("generator covered shapes %v, want all five", shapes)
	}
	t.Logf("%d models equal over shapes %v", models, shapes)
}

// sameModels fails unless al builds every requester's LP over v, for every
// positive amount the equivalence tests request, as the reference does,
// and returns how many models it compared; g is the case, for the report.
func sameModels(t *testing.T, label string, al *core.Allocator, v []float64, g *modeltest.Graph) int {
	t.Helper()
	models := 0
	caps := al.Capacities(v)
	for r := 0; r < al.N(); r++ {
		for _, amount := range amounts(caps[r])[1:] {
			if diff := al.ModelDiff(v, r, amount); diff != "" {
				t.Fatalf("%s requester %d amount %v: %s\n%s", label, r, amount, diff, g)
			}
			models++
		}
	}
	return models
}

// TestDerivationChainEqualsFresh walks every variant through a chain of
// agreement changes, patching one allocator in place with PatchShare and
// PatchAgreement (Grow between), and after every step requires it to hold
// the column lists a fresh NewAllocator over the mutated matrices builds,
// to build every requester's LP as the reference skeleton builder and
// rebind do, and to plan as the fresh allocator does, bit for bit. The
// schedule moves values and flips patterns: edges created, halved, moved
// and removed; a ring closed and opened; quantities created, raised and
// removed (A made where the variant had none); a principal added, its block
// bridged to the rest and cut off again.
func TestDerivationChainEqualsFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cases := 40
	if testing.Short() {
		cases = 12
	}
	seen := map[string]int{}
	for c := 0; c < cases; c++ {
		g := modeltest.Generate(rng)
		skeletonVariants(g, func(a [][]float64, cfg core.Config, _ *core.Allocator) {
			n := g.N
			s := cloneSquare(g.S, n)
			hasA := a != nil
			a = cloneSquare(a, n)
			v := slices.Clone(g.V)
			fresh := func(step string) *core.Allocator {
				t.Helper()
				var sa *agreement.SparseMatrix
				if hasA {
					sa = core.Sparse(a)
				}
				f, err := core.NewAllocator(core.Sparse(s), sa, cfg)
				if err != nil {
					t.Fatalf("case %d %+v after %s: fresh build refused what the mutators accepted: %v\n%s", c, cfg, step, err, g)
				}
				return f
			}
			in := fresh("the start")
			check := func(step string) {
				t.Helper()
				seen[step]++
				want := fresh(step)
				if diff := core.ColumnsDiff(in, want); diff != "" {
					t.Fatalf("case %d %+v after %s: %s\n%s", c, cfg, step, diff, g)
				}
				sameModels(t, fmt.Sprintf("case %d %+v after %s,", c, cfg, step), in, v, g)
				samePlans(t, "patched against fresh after "+step, in.PlanPairs, want.PlanPairs, want.Capacities(v), v)
			}
			setShare := func(i, j int, next float64) bool {
				if err := in.PatchShare(i, j, s[i][j], next); err != nil {
					in = fresh("a refused share") // a refused patch leaves in to discard
					return false                  // the enumeration budget refused the denser graph
				}
				s[i][j] = next
				return true
			}
			setAgreement := func(i, j int, next float64) {
				if err := in.PatchAgreement(i, j, a[i][j], next); err != nil {
					t.Fatalf("case %d %+v: A[%d][%d] %v → %v: %v", c, cfg, i, j, a[i][j], next, err)
				}
				a[i][j], hasA = next, true
			}
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				j = (i + 1) % n
			}
			if setShare(i, j, s[i][j]/2+0.125) {
				check("SetShare")
			}
			if s[i][j] > 0 && setShare(i, j, s[i][j]*0.75) {
				check("SetShare moving a value")
			}
			// A ring i → j → k → i: open it if it is closed, close it, open it.
			if k := (j + 1) % n; k != i && setShare(j, k, s[j][k]+0.0625) {
				if s[k][i] > 0 && setShare(k, i, 0) {
					check("SetShare opening a ring")
				}
				if setShare(k, i, 0.1875) {
					check("SetShare closing a ring")
					if setShare(k, i, 0) {
						check("SetShare opening the ring again")
					}
				}
			}
			setAgreement(j, i, a[j][i]+1.5)
			check("SetAgreement creating an entry")
			setAgreement(j, i, a[j][i]+0.25)
			check("SetAgreement moving a value")
			in.Grow(2)
			n += 2
			s, a, v = cloneSquare(s, n), cloneSquare(a, n), append(v, 6.5, 3.25)
			check("Grow")
			// The two new principals are a block of their own; bridge it to
			// i's and cut it off again.
			if setShare(n-2, n-1, 0.375) {
				check("SetShare making a block")
			}
			if setShare(n-1, i, 0.25) && setShare(j, n-2, 0.125) {
				check("SetShare bridging two blocks")
				if setShare(n-1, i, 0.5) {
					check("SetShare moving the bridge's share")
				}
				if setShare(n-1, i, 0) && setShare(j, n-2, 0) {
					check("SetShare cutting the bridge")
				}
			}
			if setShare(i, j, 0) {
				check("SetShare removing an edge")
			}
			setAgreement(j, i, 0)
			check("SetAgreement removing an entry")
		})
	}
	t.Logf("steps checked: %v", seen)
	for _, step := range []string{"SetShare closing a ring", "SetShare opening the ring again", "SetShare bridging two blocks",
		"SetShare moving the bridge's share", "SetShare cutting the bridge", "SetAgreement creating an entry"} {
		if seen[step] == 0 {
			t.Errorf("no case reached %q", step)
		}
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
