package sim

import (
	"testing"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/planners"
	"repro/internal/trace"
)

// Engine benches: raw event throughput without scheduling, the cost of
// LP-scheduled sharing, and the forecast-vs-myopic availability ablation.

func benchConfig(b *testing.B, planner planners.Planner, myopic bool) Config {
	b.Helper()
	p, m := ScaleWorkload(trace.BerkeleyLike(), trace.PaperServiceModel(), 20)
	return Config{
		NumProxies: 6,
		Profile:    p,
		Service:    m,
		Skew:       SkewVector(6, 3600),
		Horizon:    12 * 3600,
		Planner:    planner,
		Threshold:  100,
		Myopic:     myopic,
	}
}

func runBench(b *testing.B, cfg Config) {
	b.Helper()
	var requests int
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		requests = res.Requests
	}
	b.ReportMetric(float64(requests), "requests/run")
}

func BenchmarkSimNoSharing(b *testing.B) {
	runBench(b, benchConfig(b, nil, false))
}

func BenchmarkSimLPSharing(b *testing.B) {
	planner, err := CompletePlanner(6, 0.1, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	runBench(b, benchConfig(b, planner, false))
}

func BenchmarkSimLPSharingMyopic(b *testing.B) {
	planner, err := CompletePlanner(6, 0.1, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	runBench(b, benchConfig(b, planner, true))
}

func BenchmarkSimGreedySharing(b *testing.B) {
	planner, err := greedyComplete(6, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	runBench(b, benchConfig(b, planner, false))
}

// greedyComplete builds the greedy baseline on a complete agreement graph.
func greedyComplete(n int, share float64) (planners.Planner, error) {
	s := make([][]float64, n)
	for i := range s {
		s[i] = make([]float64, n)
		for j := range s[i] {
			if i != j {
				s[i][j] = share
			}
		}
	}
	m, err := agreement.SparseOf(s)
	if err != nil {
		return nil, err
	}
	return planners.NewGreedy(m, nil, core.Config{})
}
