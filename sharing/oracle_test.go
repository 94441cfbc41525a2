package sharing_test

import (
	"math"
	"testing"

	"repro/internal/modeltest"
	"repro/sharing"
)

// These tests check the public facade end to end against the model-based
// oracle on the three agreement-graph families DESIGN.md's taxonomy names
// (complete, ring/loop, hierarchical): the capacities and every
// allocation the Community produces must satisfy the paper's equations as
// recomputed from scratch by internal/modeltest's brute-force reference.

// facadeCase builds a community through the public API while mirroring
// the same system as a modeltest.Graph for the oracle.
type facadeCase struct {
	name string
	c    *sharing.Community
	g    *modeltest.Graph
}

// build wires n principals with capacities v, then applies each
// (from, to, fraction) relative agreement through the facade and into the
// mirror graph.
func build(t *testing.T, name string, v []float64, edges [][3]float64) *facadeCase {
	t.Helper()
	n := len(v)
	c := sharing.NewCommunity()
	ps := make([]sharing.Principal, n)
	for i := 0; i < n; i++ {
		ps[i] = c.AddPrincipal(string(rune('A' + i)))
		if err := c.AddResource(ps[i], "cpu", v[i]); err != nil {
			t.Fatalf("%s: AddResource: %v", name, err)
		}
	}
	g := &modeltest.Graph{N: n, V: append([]float64(nil), v...)}
	g.S = make([][]float64, n)
	for i := range g.S {
		g.S[i] = make([]float64, n)
	}
	for _, e := range edges {
		from, to, frac := int(e[0]), int(e[1]), e[2]
		if _, err := c.ShareFraction(ps[from], ps[to], frac); err != nil {
			t.Fatalf("%s: ShareFraction(%d->%d, %g): %v", name, from, to, frac, err)
		}
		g.S[from][to] += frac
	}
	return &facadeCase{name: name, c: c, g: g}
}

// taxonomyCases returns the three DESIGN.md families with hand-picked
// sizes and shares.
func taxonomyCases(t *testing.T) []*facadeCase {
	complete := build(t, "complete",
		[]float64{8, 6, 4, 2},
		[][3]float64{
			{0, 1, 0.25}, {0, 2, 0.25}, {0, 3, 0.25},
			{1, 0, 0.2}, {1, 2, 0.2}, {1, 3, 0.2},
			{2, 0, 0.3}, {2, 1, 0.3}, {2, 3, 0.3},
			{3, 0, 0.1}, {3, 1, 0.1}, {3, 2, 0.1},
		})
	// The paper's case-study loop: each proxy shares only with its
	// successor, so reaching a distant proxy multiplies shares around the
	// ring.
	loop := build(t, "loop",
		[]float64{5, 5, 5, 5, 5},
		[][3]float64{
			{0, 1, 0.8}, {1, 2, 0.8}, {2, 3, 0.8}, {3, 4, 0.8}, {4, 0, 0.8},
		})
	// Two complete groups bridged by a gateway edge in each direction.
	hierarchical := build(t, "hierarchical",
		[]float64{10, 4, 6, 3},
		[][3]float64{
			{0, 1, 0.5}, {1, 0, 0.5}, // group {0,1}
			{2, 3, 0.5}, {3, 2, 0.5}, // group {2,3}
			{0, 2, 0.25}, {2, 0, 0.25}, // gateway bridge
		})
	return []*facadeCase{complete, loop, hierarchical}
}

// TestFacadeCapacitiesMatchOracle: the facade's C_i must equal the
// brute-force recursive computation on each taxonomy example.
func TestFacadeCapacitiesMatchOracle(t *testing.T) {
	for _, fc := range taxonomyCases(t) {
		oracle := modeltest.NewOracle(fc.g)
		want := oracle.Capacities(fc.g.V)
		got, err := fc.c.Capacities("cpu")
		if err != nil {
			t.Fatalf("%s: Capacities: %v", fc.name, err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9*(1+want[i]) {
				t.Errorf("%s: C[%d] = %g, oracle says %g", fc.name, i, got[i], want[i])
			}
		}
	}
}

// TestFacadeAllocationsSatisfyEquations: allocations planned through the
// facade must satisfy eqns. 1–6 for every principal at half and full
// capacity.
func TestFacadeAllocationsSatisfyEquations(t *testing.T) {
	for _, fc := range taxonomyCases(t) {
		oracle := modeltest.NewOracle(fc.g)
		caps := oracle.Capacities(fc.g.V)
		for p := 0; p < fc.g.N; p++ {
			for _, frac := range []float64{0.5, 1.0} {
				amount := caps[p] * frac
				plan, err := fc.c.Allocate(sharing.Principal(p), "cpu", amount)
				if err != nil {
					t.Fatalf("%s: Allocate(p=%d, %g of C=%g): %v", fc.name, p, amount, caps[p], err)
				}
				full := &modeltest.DensePlan{Take: plan.Take, Theta: plan.Theta}
				if err := oracle.CheckAllocation(fc.g.V, p, amount, full); err != nil {
					t.Errorf("%s: p=%d amount=%g: %v", fc.name, p, amount, err)
				}
			}
		}
	}
}

// TestFacadeLoopTransitivityLevels pins the loop example's documented
// behavior: at level 1 a principal only reaches its direct successor's
// share, while full closure compounds shares around the ring — the effect
// the paper's Figures 9–11 measure.
func TestFacadeLoopTransitivityLevels(t *testing.T) {
	v := []float64{5, 5, 5, 5, 5}
	edges := [][3]float64{
		{0, 1, 0.8}, {1, 2, 0.8}, {2, 3, 0.8}, {3, 4, 0.8}, {4, 0, 0.8},
	}
	n := len(v)
	full := build(t, "loop-full", v, edges)
	fullCaps, err := full.c.Capacities("cpu")
	if err != nil {
		t.Fatal(err)
	}

	direct := sharing.NewCommunityWithConfig(sharing.Config{Level: 1})
	ps := make([]sharing.Principal, n)
	for i := 0; i < n; i++ {
		ps[i] = direct.AddPrincipal(string(rune('A' + i)))
		if err := direct.AddResource(ps[i], "cpu", v[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range edges {
		if _, err := direct.ShareFraction(ps[int(e[0])], ps[int(e[1])], e[2]); err != nil {
			t.Fatal(err)
		}
	}
	directCaps, err := direct.Capacities("cpu")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		// Direct-only: own 5 plus 0.8 of the predecessor's 5.
		if math.Abs(directCaps[i]-9) > 1e-9 {
			t.Errorf("level-1 C[%d] = %g, want 9", i, directCaps[i])
		}
		// Full closure compounds 0.8 + 0.8² + 0.8³ + 0.8⁴ = 2.3424 shares.
		want := 5 * (1 + 0.8 + 0.64 + 0.512 + 0.4096)
		if math.Abs(fullCaps[i]-want) > 1e-9 {
			t.Errorf("full-closure C[%d] = %g, want %g", i, fullCaps[i], want)
		}
		if fullCaps[i] <= directCaps[i] {
			t.Errorf("full closure C[%d] = %g not above level-1 %g", i, fullCaps[i], directCaps[i])
		}
	}
}
