// Package experiments regenerates every figure of the paper's evaluation
// (Section 4, Figures 5–13) from the reproduced system: the synthetic
// Berkeley-like workload, the discrete-event proxy simulator, and the
// agreement-enforcement planners. Each FigN function returns the data the
// corresponding figure plots; cmd/proxysim renders them as text tables and
// bench_test.go wraps each in a benchmark.
package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/planners"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Options control the scale of the reproduction.
type Options struct {
	// Scale coarsens the workload by this factor while preserving
	// utilization (1 = the paper's request granularity; benches use
	// 20–50 for speed). Default 1.
	Scale float64
	// Proxies is the number of ISPs (the paper uses 10).
	Proxies int
	// Warmup (seconds) is simulated before the reported 24-hour window to
	// fill the queues; default 6 hours.
	Warmup float64
	// Seed overrides the workload seed (default 1).
	Seed int64
}

func (o Options) normalize() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Proxies <= 0 {
		o.Proxies = 10
	}
	if o.Warmup <= 0 {
		o.Warmup = 6 * 3600
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// workload returns the scaled profile and service model.
func (o Options) workload() (trace.Profile, trace.ServiceModel) {
	p := trace.BerkeleyLike()
	p.Seed = o.Seed
	return sim.ScaleWorkload(p, trace.PaperServiceModel(), o.Scale)
}

// baseConfig is the common simulator setup: Warmup + 24 h horizon,
// one-hour time zones unless a figure overrides the skew.
func (o Options) baseConfig(p trace.Profile, m trace.ServiceModel) sim.Config {
	return sim.Config{
		NumProxies: o.Proxies,
		Profile:    p,
		Service:    m,
		Skew:       sim.SkewVector(o.Proxies, 3600),
		Horizon:    o.Warmup + trace.Day,
		Warmup:     o.Warmup,
		// The shed threshold is "this many seconds of queued work"; it
		// must scale with the per-request work so that coarsened
		// workloads shed after the same number of queued requests.
		Threshold: 5 * o.Scale,
	}
}

// Series is one labeled curve of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Figure is the regenerated data of one paper figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// Summary carries the headline numbers the paper's text quotes for
	// this figure ("worst-case wait", "redirected fraction", ...).
	Summary []string
}

// runAll executes one figure's independent sweep configurations on a
// bounded worker pool (sized by GOMAXPROCS). Results come back in input
// order, so the figures' series and summaries are deterministic regardless
// of completion order; on failure the error of the lowest-index
// configuration is reported. Sharing a planner between configurations is
// safe: core planners are concurrency-safe and each simulation run derives
// its workload from its own seeded generator.
func runAll(cfgs []sim.Config) ([]*sim.Result, error) {
	results := make([]*sim.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	par.Do(len(cfgs), par.Workers(len(cfgs)), func(i int) {
		results[i], errs[i] = sim.Run(cfgs[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// hours converts the slot index of a result series into hour-of-day
// labels, accounting for the warmup offset.
func hours(res *sim.Result, warmup float64) []float64 {
	out := make([]float64, res.Wait.Slots())
	for i := range out {
		out[i] = math.Mod((warmup+float64(i)*res.Wait.SlotWidth())/3600, 24)
	}
	return out
}

// slotSeries extracts a per-slot series from a TimeSeries-producing
// accessor.
func slotMeans(res *sim.Result) []float64 { return res.Wait.Means() }

func slotCounts(res *sim.Result) []float64 {
	counts := res.Wait.Counts()
	out := make([]float64, len(counts))
	for i, c := range counts {
		out[i] = float64(c)
	}
	return out
}

// Fig5 reproduces Figure 5: per-slot request counts and average waiting
// times over 24 hours without any resource sharing.
func Fig5(o Options) (*Figure, error) {
	o = o.normalize()
	p, m := o.workload()
	cfg := o.baseConfig(p, m)
	cfg.NumProxies = 1
	cfg.Skew = nil
	cfg.Planner = nil
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}
	x := hours(res, o.Warmup)
	fig := &Figure{
		ID:     "fig5",
		Title:  "Requests and average waiting time per 10-minute slot, no sharing",
		XLabel: "hour of day",
		YLabel: "requests / slot, wait (s)",
		Series: []Series{
			{Label: "requests", X: x, Y: slotCounts(res)},
			{Label: "avg wait (s)", X: x, Y: slotMeans(res)},
		},
	}
	fig.Summary = append(fig.Summary,
		fmt.Sprintf("peak slot average wait: %.1f s (paper: ~250 s)", res.WorstSlotWait()),
		fmt.Sprintf("overall mean wait: %.2f s over %d requests", res.Overall.Mean(), res.Requests))
	return fig, nil
}

// Fig6 reproduces Figure 6: average waiting time with sharing (complete
// graph, 10% shares) for different time skews ("gaps") between proxies.
func Fig6(o Options) (*Figure, error) {
	o = o.normalize()
	p, m := o.workload()
	fig := &Figure{
		ID:     "fig6",
		Title:  "Average waiting time with sharing, complete graph 10%, by stream gap",
		XLabel: "hour of day",
		YLabel: "avg wait (s)",
	}
	planner, err := sim.CompletePlanner(o.Proxies, 0.1, core.Config{})
	if err != nil {
		return nil, err
	}
	gaps := []float64{0, 1200, 2400, 3600}
	cfgs := make([]sim.Config, len(gaps))
	for i, gap := range gaps {
		cfgs[i] = o.baseConfig(p, m)
		cfgs[i].Skew = sim.SkewVector(o.Proxies, gap)
		cfgs[i].Planner = planner
	}
	results, err := runAll(cfgs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		gap := gaps[i]
		fig.Series = append(fig.Series, Series{
			Label: fmt.Sprintf("gap %.0f s", gap),
			X:     hours(res, o.Warmup),
			Y:     res.PerProxyWait[0].Means(),
		})
		fig.Summary = append(fig.Summary,
			fmt.Sprintf("gap %4.0f s: ISP0 worst slot %.2f s, overall mean %.3f s",
				gap, maxOf(res.PerProxyWait[0].Means()), res.Overall.Mean()))
	}
	return fig, nil
}

// Fig7 reproduces Figure 7: how much extra stand-alone capacity a proxy
// needs to match the performance it gets from sharing (paper: 25–35%).
func Fig7(o Options) (*Figure, error) {
	o = o.normalize()
	p, m := o.workload()
	fig := &Figure{
		ID:     "fig7",
		Title:  "Average waiting time vs processing capacity, with and without sharing",
		XLabel: "capacity multiplier",
		YLabel: "overall mean wait (s)",
	}
	planner, err := sim.CompletePlanner(o.Proxies, 0.1, core.Config{})
	if err != nil {
		return nil, err
	}
	multipliers := []float64{1.0, 1.1, 1.2, 1.3, 1.4, 1.5}
	// Sweep points interleave sharing / no-sharing per multiplier:
	// cfgs[2i] shares, cfgs[2i+1] stands alone.
	cfgs := make([]sim.Config, 2*len(multipliers))
	for i, mult := range multipliers {
		cfgs[2*i] = o.baseConfig(p, m)
		cfgs[2*i].Speed = []float64{mult}
		cfgs[2*i].Planner = planner
		cfgs[2*i+1] = o.baseConfig(p, m)
		cfgs[2*i+1].Speed = []float64{mult}
	}
	results, err := runAll(cfgs)
	if err != nil {
		return nil, err
	}
	var shareSeries, aloneSeries Series
	shareSeries.Label = "with sharing"
	aloneSeries.Label = "no sharing"
	var sharedAtUnit float64
	for i, mult := range multipliers {
		resShare, resAlone := results[2*i], results[2*i+1]
		shareSeries.X = append(shareSeries.X, mult)
		shareSeries.Y = append(shareSeries.Y, resShare.Overall.Mean())
		aloneSeries.X = append(aloneSeries.X, mult)
		aloneSeries.Y = append(aloneSeries.Y, resAlone.Overall.Mean())
		if mult == 1.0 {
			sharedAtUnit = resShare.Overall.Mean()
		}
	}
	fig.Series = []Series{shareSeries, aloneSeries}
	// Where does the no-sharing curve cross sharing-at-1.0?
	cross := math.NaN()
	for i := 0; i < len(aloneSeries.Y); i++ {
		if aloneSeries.Y[i] <= sharedAtUnit {
			cross = aloneSeries.X[i]
			break
		}
	}
	fig.Summary = append(fig.Summary,
		fmt.Sprintf("sharing at 1.0x capacity: mean wait %.3f s", sharedAtUnit))
	if math.IsNaN(cross) {
		fig.Summary = append(fig.Summary,
			"no-sharing does not match sharing even at 1.5x capacity (paper: 25-35% suffices)")
	} else {
		fig.Summary = append(fig.Summary,
			fmt.Sprintf("no-sharing needs ~%.0f%%+ extra capacity to match (paper: 25-35%%)", (cross-1)*100))
	}
	return fig, nil
}

// Fig8 reproduces Figure 8: transitivity levels on the complete graph —
// sharing helps, extra levels add little because everyone is reachable
// directly.
func Fig8(o Options) (*Figure, error) {
	o = o.normalize()
	return loopOrCompleteLevels(o, "fig8",
		"Transitivity levels, complete graph 10% shares", 0, 0.1)
}

// Fig9 reproduces Figure 9: loop structure, sharing neighbor one time
// zone away (skip 1). Enforcing only direct agreements leaves the worst
// waits high; three or more levels recover most of the benefit.
func Fig9(o Options) (*Figure, error) {
	o = o.normalize()
	return loopOrCompleteLevels(o, "fig9",
		"Transitivity levels, loop 80% shares, neighbor 1 h away", 1, 0.8)
}

// Fig10 reproduces Figure 10: loop with the sharing neighbor three time
// zones away (skip 3) — direct agreements already help much more.
func Fig10(o Options) (*Figure, error) {
	o = o.normalize()
	return loopOrCompleteLevels(o, "fig10",
		"Transitivity levels, loop 80% shares, neighbor 3 h away", 3, 0.8)
}

// Fig11 reproduces Figure 11: loop with the neighbor seven time zones
// away (skip 7) — direct agreements suffice.
func Fig11(o Options) (*Figure, error) {
	o = o.normalize()
	return loopOrCompleteLevels(o, "fig11",
		"Transitivity levels, loop 80% shares, neighbor 7 h away", 7, 0.8)
}

// loopOrCompleteLevels runs the transitivity-level sweep on either the
// complete graph (skip == 0) or a loop with the given skip.
func loopOrCompleteLevels(o Options, id, title string, skip int, share float64) (*Figure, error) {
	p, m := o.workload()
	fig := &Figure{
		ID:     id,
		Title:  title,
		XLabel: "hour of day",
		YLabel: "avg wait (s)",
	}
	levels := []int{1, 2, 3, o.Proxies - 1}
	cfgs := make([]sim.Config, len(levels))
	for i, lvl := range levels {
		var planner planners.Planner
		var err error
		if skip == 0 {
			planner, err = sim.CompletePlanner(o.Proxies, share, core.Config{Level: lvl})
		} else {
			planner, err = sim.LoopPlanner(o.Proxies, skip, share, core.Config{Level: lvl})
		}
		if err != nil {
			return nil, err
		}
		cfgs[i] = o.baseConfig(p, m)
		cfgs[i].Planner = planner
	}
	results, err := runAll(cfgs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		lvl := levels[i]
		fig.Series = append(fig.Series, Series{
			Label: fmt.Sprintf("level %d", lvl),
			X:     hours(res, o.Warmup),
			Y:     slotMeans(res),
		})
		fig.Summary = append(fig.Summary,
			fmt.Sprintf("level %d: worst slot %.2f s, mean %.3f s, redirected %.2f%%",
				lvl, res.WorstSlotWait(), res.Overall.Mean(), 100*res.RedirectedFraction()))
	}
	return fig, nil
}

// Fig12 reproduces Figure 12: the impact of a fixed redirection cost of
// zero, one, or two average service times.
func Fig12(o Options) (*Figure, error) {
	o = o.normalize()
	p, m := o.workload()
	fig := &Figure{
		ID:     "fig12",
		Title:  "Average waiting time vs redirection cost, complete graph 10%",
		XLabel: "hour of day",
		YLabel: "avg wait (s)",
	}
	planner, err := sim.CompletePlanner(o.Proxies, 0.1, core.Config{})
	if err != nil {
		return nil, err
	}
	costs := []float64{0, m.A, 2 * m.A}
	cfgs := make([]sim.Config, len(costs))
	for i, cost := range costs {
		cfgs[i] = o.baseConfig(p, m)
		cfgs[i].Planner = planner
		cfgs[i].RedirectCost = cost
	}
	results, err := runAll(cfgs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		cost := costs[i]
		fig.Series = append(fig.Series, Series{
			Label: fmt.Sprintf("cost %.2g s", cost),
			X:     hours(res, o.Warmup),
			Y:     slotMeans(res),
		})
		fig.Summary = append(fig.Summary,
			fmt.Sprintf("cost %.2g s: mean %.3f s, redirected %.2f%% (peak slot %.2f%%)",
				cost, res.Overall.Mean(), 100*res.RedirectedFraction(), 100*res.PeakRedirectedFraction()))
	}
	return fig, nil
}

// Fig13 reproduces Figure 13: the centralized LP scheme against endpoint
// (proportional) enforcement on the distance-decayed agreement graph.
func Fig13(o Options) (*Figure, error) {
	o = o.normalize()
	p, m := o.workload()
	fig := &Figure{
		ID:     "fig13",
		Title:  "LP scheme vs endpoint-proportional scheme, distance-decayed graph",
		XLabel: "hour of day",
		YLabel: "avg wait (s)",
	}
	lpPlanner, err := sim.DistanceDecayPlanner(o.Proxies, core.Config{})
	if err != nil {
		return nil, err
	}
	propPlanner, err := sim.DistanceDecayProportional(o.Proxies)
	if err != nil {
		return nil, err
	}
	schemes := []struct {
		label   string
		planner planners.Planner
	}{
		{"linear programming", lpPlanner},
		{"endpoint proportional", propPlanner},
	}
	cfgs := make([]sim.Config, len(schemes))
	for i, pl := range schemes {
		cfgs[i] = o.baseConfig(p, m)
		cfgs[i].Planner = pl.planner
	}
	results, err := runAll(cfgs)
	if err != nil {
		return nil, err
	}
	var peak [2]float64
	for i, res := range results {
		pl := schemes[i]
		fig.Series = append(fig.Series, Series{
			Label: pl.label,
			X:     hours(res, o.Warmup),
			Y:     slotMeans(res),
		})
		peak[i] = res.WorstSlotWait()
		fig.Summary = append(fig.Summary,
			fmt.Sprintf("%s: worst slot %.2f s, mean %.3f s, redirected %.2f%%",
				pl.label, res.WorstSlotWait(), res.Overall.Mean(), 100*res.RedirectedFraction()))
	}
	if peak[1] > 0 {
		fig.Summary = append(fig.Summary,
			fmt.Sprintf("LP reduces the worst slot wait by %.0f%% (paper: >50%% at peak)",
				100*(1-peak[0]/peak[1])))
	}
	return fig, nil
}

// ExtOutage is an extension experiment with no paper counterpart: one
// proxy's server fails for two hours bracketing its own rush hour. It
// compares no sharing, direct-only enforcement, and full transitive
// enforcement — measuring how much of an outage the sharing agreements
// can absorb ("dynamically changing resource availability" taken to its
// extreme).
func ExtOutage(o Options) (*Figure, error) {
	o = o.normalize()
	p, m := o.workload()
	fig := &Figure{
		ID:     "ext-outage",
		Title:  "Failover: proxy 0's server down for 2 h around its rush hour",
		XLabel: "hour of day",
		YLabel: "avg wait of proxy 0's clients (s)",
	}
	// Proxy 0 peaks at global hour 23.75; take it down from hour 23 to
	// hour 25 (1 am).
	outages := []sim.Outage{{
		Proxy: 0,
		Start: 23 * 3600,
		End:   25 * 3600,
	}}
	full, err := sim.CompletePlanner(o.Proxies, 0.1, core.Config{})
	if err != nil {
		return nil, err
	}
	direct, err := sim.CompletePlanner(o.Proxies, 0.1, core.Config{Level: 1})
	if err != nil {
		return nil, err
	}
	cases := []struct {
		label   string
		planner planners.Planner
	}{
		{"no sharing", nil},
		{"direct only", direct},
		{"full transitive", full},
	}
	cfgs := make([]sim.Config, len(cases))
	for i, tc := range cases {
		cfgs[i] = o.baseConfig(p, m)
		cfgs[i].Planner = tc.planner
		cfgs[i].Outages = outages
	}
	results, err := runAll(cfgs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		tc := cases[i]
		fig.Series = append(fig.Series, Series{
			Label: tc.label,
			X:     hours(res, o.Warmup),
			Y:     res.PerProxyWait[0].Means(),
		})
		fig.Summary = append(fig.Summary,
			fmt.Sprintf("%s: proxy-0 worst slot %.2f s, overall mean %.3f s, redirected %.2f%%",
				tc.label, maxOf(res.PerProxyWait[0].Means()), res.Overall.Mean(), 100*res.RedirectedFraction()))
	}
	return fig, nil
}

// All runs every figure in order.
func All(o Options) ([]*Figure, error) {
	funcs := []func(Options) (*Figure, error){
		Fig5, Fig6, Fig7, Fig8, Fig9, Fig10, Fig11, Fig12, Fig13,
	}
	out := make([]*Figure, 0, len(funcs))
	for _, f := range funcs {
		fig, err := f(o)
		if err != nil {
			return out, err
		}
		out = append(out, fig)
	}
	return out, nil
}

func maxOf(xs []float64) float64 {
	worst := 0.0
	for _, x := range xs {
		if x > worst {
			worst = x
		}
	}
	return worst
}
