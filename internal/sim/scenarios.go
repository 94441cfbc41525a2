package sim

import (
	"fmt"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/planners"
	"repro/internal/trace"
)

// This file wires agreement structures to planners and builds the workload
// shapes the case study uses, so that the experiment driver, the benches
// and the examples all share one set of scenario constructors.

// SkewVector returns per-proxy stream skews of 0, step, 2·step, ...
// seconds — the "gap" between geographically distant ISPs.
func SkewVector(n int, step float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i) * step
	}
	return out
}

// CompletePlanner builds the LP planner for a complete agreement graph of
// n proxies, each sharing `share` of its resources with every other proxy
// (Figures 6–8 use 10 proxies at 10%).
func CompletePlanner(n int, share float64, cfg core.Config) (planners.Planner, error) {
	sys, _, err := agreement.BuildComplete(n, agreement.General, 1, share)
	if err != nil {
		return nil, err
	}
	return plannerFromSystem(sys, cfg)
}

// LoopPlanner builds the LP planner for the cyclic-loop structure of
// Figures 9–11: proxy i shares `share` of its resources with proxy
// (i+skip) mod n (agreement.BuildLoop, which refuses a skip that is out
// of range or not coprime with n). With time zones of one hour between
// adjacent proxies, skip is exactly the paper's "time zone gap between
// sharing neighbors".
func LoopPlanner(n, skip int, share float64, cfg core.Config) (planners.Planner, error) {
	sys, _, err := agreement.BuildLoop(n, agreement.General, 1, share, skip)
	if err != nil {
		return nil, err
	}
	return plannerFromSystem(sys, cfg)
}

// DistanceDecayPlanner builds the Figure 13 structure: a complete graph
// where each ISP shares 20% with neighbors one time zone away, 10% at two,
// 5% at three and 3% with everyone farther.
func DistanceDecayPlanner(n int, cfg core.Config) (planners.Planner, error) {
	sys, _, err := agreement.BuildDistanceDecay(n, agreement.General, 1, []float64{0.20, 0.10, 0.05, 0.03})
	if err != nil {
		return nil, err
	}
	return plannerFromSystem(sys, cfg)
}

// DistanceDecayProportional is the endpoint-enforcement baseline on the
// same Figure 13 structure.
func DistanceDecayProportional(n int) (planners.Planner, error) {
	sys, _, err := agreement.BuildDistanceDecay(n, agreement.General, 1, []float64{0.20, 0.10, 0.05, 0.03})
	if err != nil {
		return nil, err
	}
	m, err := sys.SparseMatrices(agreement.General)
	if err != nil {
		return nil, err
	}
	return planners.NewProportional(m.S, m.A)
}

// plannerFromSystem collapses an agreement system to matrices and builds
// the LP allocator. The dynamic availability V is supplied per consult by
// the simulator; only the structure (S, A) is taken from the system.
func plannerFromSystem(sys *agreement.System, cfg core.Config) (planners.Planner, error) {
	m, err := sys.SparseMatrices(agreement.General)
	if err != nil {
		return nil, err
	}
	return core.NewAllocator(m.S, m.A, cfg)
}

// ScaleWorkload coarsens the workload by a factor k ≥ 1 while preserving
// utilization: request rates shrink by k and per-request service times
// grow by k, so the offered load ρ(t) — and therefore the shape of every
// waiting-time curve — is unchanged while the event count drops by k.
// Benchmarks and tests use k ≈ 10–50; the experiment driver uses k = 1.
func ScaleWorkload(p trace.Profile, m trace.ServiceModel, k float64) (trace.Profile, trace.ServiceModel) {
	if k <= 0 {
		panic(fmt.Sprintf("sim: ScaleWorkload factor %g must be positive", k))
	}
	p.PeakRate /= k
	p.BaseRate /= k
	m.A *= k
	m.B *= k
	m.C *= k
	return p, m
}
