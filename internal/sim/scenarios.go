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
// (i+skip) mod n. With time zones of one hour between adjacent proxies,
// skip is exactly the paper's "time zone gap between sharing neighbors".
// skip must be coprime with n for the agreements to form a single loop.
func LoopPlanner(n, skip int, share float64, cfg core.Config) (planners.Planner, error) {
	if skip <= 0 || skip >= n {
		return nil, fmt.Errorf("sim: loop skip %d out of range (0, %d)", skip, n)
	}
	if gcd(skip, n) != 1 {
		return nil, fmt.Errorf("sim: loop skip %d shares a factor with %d proxies; agreements would form %d disjoint cycles", skip, n, gcd(skip, n))
	}
	sys := agreement.NewSystem()
	ids := make([]agreement.PrincipalID, n)
	for i := 0; i < n; i++ {
		ids[i] = sys.AddPrincipal(fmt.Sprintf("ISP%d", i))
		if _, err := sys.AddResource(fmt.Sprintf("cap%d", i), agreement.General, ids[i], 1); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		from := sys.CurrencyOf(ids[i])
		to := sys.CurrencyOf(ids[(i+skip)%n])
		units := share * sys.Currency(from).FaceValue
		if _, err := sys.ShareRelative(from, to, units); err != nil {
			return nil, err
		}
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

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
