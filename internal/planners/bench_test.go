package planners_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/planners"
)

// The baselines and the multi-grid refinement against the LP scheme:
// internal/core benches the flat allocator on the same scenarios
// (BenchmarkPlanSubstituted10, BenchmarkPlanFlat40Level3).

func benchScenario(n int) (s [][]float64, v []float64) {
	rng := rand.New(rand.NewSource(11))
	s = make([][]float64, n)
	for i := range s {
		s[i] = make([]float64, n)
		for j := range s[i] {
			if i != j {
				s[i][j] = 0.5 / float64(n-1)
			}
		}
	}
	v = make([]float64, n)
	for i := range v {
		v[i] = 50 + rng.Float64()*50
	}
	return
}

func benchPlan(b *testing.B, planner planners.Planner, v []float64) {
	b.Helper()
	var sources []int
	var takes []float64
	for i := 0; i < b.N; i++ {
		var err error
		if sources, takes, _, err = planner.PlanPairs(sources[:0], takes[:0], v, 0, 40); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanGreedy10(b *testing.B) {
	s, v := benchScenario(10)
	g, err := planners.NewGreedy(sparse(s), nil, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	benchPlan(b, g, v)
}

func BenchmarkPlanProportional10(b *testing.B) {
	s, v := benchScenario(10)
	p, err := planners.NewProportional(sparse(s), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	benchPlan(b, p, v)
}

func BenchmarkPlanHierarchy40Level3(b *testing.B) {
	s, v := benchScenario(40)
	groups := make([][]int, 8)
	for g := range groups {
		for k := 0; k < 5; k++ {
			groups[g] = append(groups[g], g*5+k)
		}
	}
	h, err := planners.NewHierarchy(sparse(s), nil, groups, core.Config{Level: 3})
	if err != nil {
		b.Fatal(err)
	}
	// Force the coarse path: drain the home group.
	drained := append([]float64(nil), v...)
	for _, p := range groups[0] {
		drained[p] = 1
	}
	b.ResetTimer()
	benchPlan(b, h, drained)
}
