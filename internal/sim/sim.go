// Package sim is the trace-driven web-proxy simulator of the paper's case
// study (Section 4): a group of ISP-level proxies serving diurnal request
// streams, cooperating through resource sharing agreements enforced by a
// global scheduler.
//
// Each proxy is a FIFO single-server queue whose service times follow the
// paper's linear model min(a + b·len, c). When the resource requirements
// of the requests queued at a proxy's front-end exceed a threshold, the
// global scheduler is consulted: it computes each proxy's available
// capacity over a short horizon and plans where to redirect the excess,
// honoring the sharing agreements (any planners.Planner — the LP scheme, the
// endpoint-proportional baseline, or greedy). Redirected requests carry a
// fixed redirection cost as extra work at the target.
//
// The simulator is deterministic given the workload profile's seed.
package sim

import (
	"container/heap"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/planners"
	"repro/internal/trace"
)

// Config describes one simulation run.
type Config struct {
	// NumProxies is the number of cooperating proxies (the paper uses 10).
	NumProxies int
	// Speed scales each proxy's processing capacity (1.0 = the unit
	// server of the paper). nil means all 1.0; a single entry is
	// broadcast to every proxy (used by the Figure 7 capacity sweep).
	Speed []float64
	// Profile is the request workload; Skew[i] shifts proxy i's local
	// time of day (nil = no skew).
	Profile trace.Profile
	Skew    []float64
	// Sources, when non-nil, replaces the synthetic per-proxy streams
	// with explicit request sources (one per proxy) — replaying a
	// recorded trace, for instance (cmd/tracegen writes them,
	// trace.ReadCSV loads them). With Sources set and a zero Profile the
	// scheduler runs myopic (there is no rate model to forecast from).
	Sources []trace.Source
	// Service converts response lengths to server-seconds.
	Service trace.ServiceModel
	// Horizon is the simulated duration in seconds; Warmup is discarded
	// from statistics (the reported window is [Warmup, Horizon)).
	Horizon float64
	Warmup  float64
	// Planner enforces the sharing agreements; nil disables sharing
	// entirely (the no-sharing baseline of Figure 5).
	Planner planners.Planner
	// Threshold is the front-end backlog (in work-seconds) beyond which
	// the scheduler is consulted; the proxy sheds down to TargetBacklog.
	Threshold     float64
	TargetBacklog float64
	// SchedulerHorizon is the look-ahead window (seconds) over which
	// available capacity V_i is measured when consulting the scheduler.
	SchedulerHorizon float64
	// MinConsultInterval rate-limits consultations per proxy (seconds).
	MinConsultInterval float64
	// RedirectCost is the fixed overhead added to a redirected request's
	// work (Figure 12 uses 0, 0.1 and 0.2 seconds).
	RedirectCost float64
	// Myopic makes each proxy report raw spare capacity over the
	// scheduling horizon. By default capacity reports are
	// forecast-aware: they subtract the work the proxy's own clients are
	// expected to bring during the horizon (ISPs know their diurnal
	// profiles), so the scheduler does not dump load on a proxy seconds
	// before that proxy's own rush hour. The ablation bench compares
	// both.
	Myopic bool
	// SlotWidth is the statistics bin width (the paper uses 10-minute
	// slots = 600 s).
	SlotWidth float64
	// Outages injects failures: during [Start, End) the proxy's server
	// stops starting requests (in-flight work completes) and the
	// scheduler sees zero availability there. Its front-end keeps
	// queueing and may still shed to healthy proxies — the failover path
	// sharing agreements make possible.
	Outages []Outage
	// KeepWaits retains every individual waiting time in
	// Result.WaitSample so percentiles can be computed (costs one float64
	// per request).
	KeepWaits bool
	// PlannerSchedule switches the enforcement planner mid-run —
	// agreements are dynamic in the paper ("resource sharing agreements
	// can change... supporting tickets join or leave"). Entries must be
	// sorted by At; a nil Planner disables sharing from that point.
	PlannerSchedule []PlannerChange
}

// PlannerChange swaps the active planner at a point in simulated time.
type PlannerChange struct {
	At      float64
	Planner planners.Planner
}

// Outage takes one proxy's server down for a time window.
type Outage struct {
	Proxy int
	Start float64
	End   float64
}

// Defaults fills unset fields with the case study's values.
func (c Config) withDefaults() (Config, error) {
	if c.NumProxies <= 0 {
		return c, fmt.Errorf("sim: NumProxies must be positive, got %d", c.NumProxies)
	}
	if c.Horizon <= 0 {
		return c, fmt.Errorf("sim: Horizon must be positive, got %g", c.Horizon)
	}
	if c.Warmup < 0 || c.Warmup >= c.Horizon {
		return c, fmt.Errorf("sim: Warmup %g must lie in [0, Horizon)", c.Warmup)
	}
	switch len(c.Speed) {
	case 0:
		c.Speed = make([]float64, c.NumProxies)
		for i := range c.Speed {
			c.Speed[i] = 1
		}
	case 1:
		s := c.Speed[0]
		c.Speed = make([]float64, c.NumProxies)
		for i := range c.Speed {
			c.Speed[i] = s
		}
	case c.NumProxies:
	default:
		return c, fmt.Errorf("sim: Speed has %d entries for %d proxies", len(c.Speed), c.NumProxies)
	}
	for i, s := range c.Speed {
		if s <= 0 {
			return c, fmt.Errorf("sim: Speed[%d] = %g must be positive", i, s)
		}
	}
	if c.Skew == nil {
		c.Skew = make([]float64, c.NumProxies)
	}
	if len(c.Skew) != c.NumProxies {
		return c, fmt.Errorf("sim: Skew has %d entries for %d proxies", len(c.Skew), c.NumProxies)
	}
	if c.Service == (trace.ServiceModel{}) {
		c.Service = trace.PaperServiceModel()
	}
	if c.Threshold == 0 {
		c.Threshold = 5
	}
	if c.TargetBacklog == 0 {
		c.TargetBacklog = c.Threshold / 2
	}
	if c.TargetBacklog > c.Threshold {
		return c, fmt.Errorf("sim: TargetBacklog %g exceeds Threshold %g", c.TargetBacklog, c.Threshold)
	}
	if c.SchedulerHorizon == 0 {
		c.SchedulerHorizon = 120
	}
	if c.MinConsultInterval == 0 {
		c.MinConsultInterval = 10
	}
	if c.SlotWidth == 0 {
		c.SlotWidth = 600
	}
	if c.RedirectCost < 0 {
		return c, fmt.Errorf("sim: RedirectCost %g must be non-negative", c.RedirectCost)
	}
	if c.Sources != nil {
		if len(c.Sources) != c.NumProxies {
			return c, fmt.Errorf("sim: %d sources for %d proxies", len(c.Sources), c.NumProxies)
		}
		if c.Profile == (trace.Profile{}) {
			c.Myopic = true // no rate model to forecast from
		}
	}
	for i, o := range c.Outages {
		if o.Proxy < 0 || o.Proxy >= c.NumProxies {
			return c, fmt.Errorf("sim: outage %d: proxy %d out of range", i, o.Proxy)
		}
		if o.End <= o.Start || o.Start < 0 {
			return c, fmt.Errorf("sim: outage %d: window [%g, %g) invalid", i, o.Start, o.End)
		}
	}
	for i := 1; i < len(c.PlannerSchedule); i++ {
		if c.PlannerSchedule[i].At <= c.PlannerSchedule[i-1].At {
			return c, fmt.Errorf("sim: PlannerSchedule must be strictly increasing in time")
		}
	}
	return c, nil
}

// request is one unit of queued work.
type request struct {
	origArrival float64 // client-side arrival time (for waiting time)
	work        float64 // server-seconds at unit speed (incl. redirect cost)
	home        int     // proxy whose client issued the request
	redirected  bool
}

// proxy is one FIFO single-server queue.
type proxy struct {
	speed       float64
	busy        bool
	busyUntil   float64 // completion time of the in-service request
	queue       []request
	queuedWork  float64
	remoteWork  float64 // portion of queuedWork that was redirected here
	lastConsult float64
}

// backlog returns the proxy's outstanding work (server-seconds at unit
// speed) at time t: queued work plus the unfinished part of the request in
// service.
func (p *proxy) backlog(t float64) float64 {
	b := p.queuedWork
	if p.busy && p.busyUntil > t {
		b += (p.busyUntil - t) * p.speed
	}
	return b
}

// Result carries the statistics of one run.
type Result struct {
	// Wait bins every request's waiting time by its (re-based) arrival
	// slot; Wait.Count gives the per-slot request counts of Figure 5.
	Wait *metrics.TimeSeries
	// PerProxyWait[i] is the same series restricted to proxy i's own
	// clients (requests that arrived at i, wherever they were served).
	PerProxyWait []*metrics.TimeSeries
	// Overall aggregates every waiting time in the reporting window.
	Overall metrics.Welford
	// RedirectedByArrival counts redirected requests per slot (value 1
	// per redirected request), for Figure 12's redirection-share claims.
	RedirectedByArrival *metrics.TimeSeries
	// WaitSample holds every waiting time in the reporting window when
	// Config.KeepWaits is set (nil otherwise); use metrics.Percentile on
	// it.
	WaitSample []float64
	// Totals.
	Requests     int
	Redirected   int
	Consults     int
	PlanFailures int
}

// WaitPercentile returns the p-th percentile of waiting times. It
// requires Config.KeepWaits; without a sample it returns 0.
func (r *Result) WaitPercentile(p float64) float64 {
	return metrics.Percentile(r.WaitSample, p)
}

// RedirectedFraction is the share of requests that were redirected.
func (r *Result) RedirectedFraction() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Redirected) / float64(r.Requests)
}

// PeakRedirectedFraction returns the largest per-slot share of redirected
// requests.
func (r *Result) PeakRedirectedFraction() float64 {
	worst := 0.0
	for i := 0; i < r.Wait.Slots(); i++ {
		total := r.Wait.Count(i)
		if total == 0 {
			continue
		}
		if f := float64(r.RedirectedByArrival.Count(i)) / float64(total); f > worst {
			worst = f
		}
	}
	return worst
}

// WorstSlotWait returns the largest per-slot mean waiting time — the
// "worst-case waiting time" metric of the paper's transitivity figures.
func (r *Result) WorstSlotWait() float64 {
	_, m := r.Wait.MaxMean()
	return m
}

// Run executes the simulation and returns its statistics.
func Run(cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	window := cfg.Horizon - cfg.Warmup
	res := &Result{
		Wait:                metrics.NewTimeSeries(window, cfg.SlotWidth),
		RedirectedByArrival: metrics.NewTimeSeries(window, cfg.SlotWidth),
		PerProxyWait:        make([]*metrics.TimeSeries, cfg.NumProxies),
	}
	for i := range res.PerProxyWait {
		res.PerProxyWait[i] = metrics.NewTimeSeries(window, cfg.SlotWidth)
	}

	proxies := make([]*proxy, cfg.NumProxies)
	for i := range proxies {
		proxies[i] = &proxy{speed: cfg.Speed[i], lastConsult: -1e18}
	}

	eq := &eventQueue{}
	heap.Init(eq)
	streams := make([]trace.Source, cfg.NumProxies)
	for i := range streams {
		if cfg.Sources != nil {
			streams[i] = cfg.Sources[i]
		} else {
			s, err := trace.NewStream(cfg.Profile, cfg.Skew[i], cfg.Horizon)
			if err != nil {
				return nil, err
			}
			streams[i] = s
		}
		pushNext(eq, streams[i], i, cfg)
	}

	engine := &engine{cfg: cfg, proxies: proxies, eq: eq, res: res}
	if !cfg.Myopic {
		engine.meanCost = cfg.Service.MeanCost(cfg.Profile)
	}
	for _, o := range cfg.Outages {
		heap.Push(eq, event{t: o.End, kind: evResume, proxy: o.Proxy})
	}

	for eq.Len() > 0 {
		ev := heap.Pop(eq).(event)
		switch ev.kind {
		case evStreamArrival:
			// Refill from the stream before handling.
			pushNext(eq, streams[ev.proxy], ev.proxy, cfg)
			engine.arrive(ev.t, ev.proxy, request{origArrival: ev.t, work: ev.work, home: ev.proxy}, ev.proxy)
		case evRedirectArrival:
			engine.arrive(ev.t, ev.proxy, request{origArrival: ev.orig, work: ev.work, home: ev.home, redirected: true}, -1)
		case evDeparture:
			engine.depart(ev.t, ev.proxy)
		case evResume:
			engine.resume(ev.t, ev.proxy)
		}
	}
	return res, nil
}

// pushNext queues the proxy's next stream arrival, dropping requests at
// or beyond the horizon (replayed traces may extend past it; synthetic
// streams end there by construction).
func pushNext(eq *eventQueue, src trace.Source, proxy int, cfg Config) {
	r, ok := src.Next()
	if !ok || r.Arrival >= cfg.Horizon {
		return // sources are arrival-ordered; anything later is out too
	}
	heap.Push(eq, event{t: r.Arrival, kind: evStreamArrival, proxy: proxy, work: cfg.Service.Cost(r.Length)})
}

type engine struct {
	cfg      Config
	proxies  []*proxy
	eq       *eventQueue
	res      *Result
	meanCost float64 // mean per-request work, for forecasting
	// sources and takes hold the last consult's plan, reused from one
	// consult to the next.
	sources []int
	takes   []float64
}

// arrive handles a request arriving at proxy p. home is the proxy whose
// client issued it (-1 for an already-redirected request, which must not
// be redirected again).
func (e *engine) arrive(t float64, pIdx int, req request, home int) {
	p := e.proxies[pIdx]
	if !p.busy && len(p.queue) == 0 && !e.down(pIdx, t) {
		e.startService(t, pIdx, req)
	} else {
		p.queue = append(p.queue, req)
		p.queuedWork += req.work
		if req.redirected {
			p.remoteWork += req.work
		}
	}
	if home >= 0 && (e.cfg.Planner != nil || len(e.cfg.PlannerSchedule) > 0) {
		e.maybeShed(t, pIdx)
	}
}

// down reports whether proxy p's server is inside an outage window at t.
func (e *engine) down(pIdx int, t float64) bool {
	for _, o := range e.cfg.Outages {
		if o.Proxy == pIdx && t >= o.Start && t < o.End {
			return true
		}
	}
	return false
}

// resume restarts a proxy's queue at the end of an outage.
func (e *engine) resume(t float64, pIdx int) {
	p := e.proxies[pIdx]
	if p.busy || len(p.queue) == 0 || e.down(pIdx, t) {
		return
	}
	req := p.queue[0]
	p.queue = p.queue[1:]
	p.queuedWork -= req.work
	if req.redirected {
		p.remoteWork -= req.work
		if p.remoteWork < 0 {
			p.remoteWork = 0
		}
	}
	e.startService(t, pIdx, req)
}

// depart completes the in-service request at proxy p and starts the next.
func (e *engine) depart(t float64, pIdx int) {
	p := e.proxies[pIdx]
	p.busy = false
	if len(p.queue) == 0 || e.down(pIdx, t) {
		return
	}
	req := p.queue[0]
	p.queue = p.queue[1:]
	p.queuedWork -= req.work
	if p.queuedWork < 0 {
		p.queuedWork = 0
	}
	if req.redirected {
		p.remoteWork -= req.work
		if p.remoteWork < 0 {
			p.remoteWork = 0
		}
	}
	e.startService(t, pIdx, req)
}

// startService begins serving req at time t and records its waiting time.
func (e *engine) startService(t float64, pIdx int, req request) {
	p := e.proxies[pIdx]
	p.busy = true
	p.busyUntil = t + req.work/p.speed
	heap.Push(e.eq, event{t: p.busyUntil, kind: evDeparture, proxy: pIdx})

	wait := t - req.origArrival
	e.record(req, wait)
}

// record folds one served request into the statistics (reporting window
// only, binned by re-based client arrival time).
func (e *engine) record(req request, wait float64) {
	if req.origArrival < e.cfg.Warmup {
		return
	}
	at := req.origArrival - e.cfg.Warmup
	e.res.Requests++
	e.res.Overall.Add(wait)
	e.res.Wait.Add(at, wait)
	e.res.PerProxyWait[req.home].Add(at, wait)
	if e.cfg.KeepWaits {
		e.res.WaitSample = append(e.res.WaitSample, wait)
	}
	if req.redirected {
		e.res.Redirected++
		e.res.RedirectedByArrival.Add(at, 1)
	}
}

// activePlanner returns the planner in force at time t, applying any
// scheduled agreement changes.
func (e *engine) activePlanner(t float64) planners.Planner {
	planner := e.cfg.Planner
	for _, ch := range e.cfg.PlannerSchedule {
		if t >= ch.At {
			planner = ch.Planner
		} else {
			break
		}
	}
	return planner
}

// maybeShed consults the global scheduler when proxy p's front-end backlog
// exceeds the threshold, redirecting queued requests according to the
// planner's allocation.
func (e *engine) maybeShed(t float64, pIdx int) {
	planner := e.activePlanner(t)
	if planner == nil {
		return
	}
	p := e.proxies[pIdx]
	if p.backlog(t) <= e.cfg.Threshold*p.speed {
		return
	}
	if t-p.lastConsult < e.cfg.MinConsultInterval {
		return
	}
	p.lastConsult = t
	e.res.Consults++

	// Available work capacity of every proxy over the scheduling horizon.
	v := make([]float64, len(e.proxies))
	for i, q := range e.proxies {
		if e.down(i, t) {
			continue // a down server offers nothing
		}
		avail := e.cfg.SchedulerHorizon*q.speed - q.backlog(t)
		if !e.cfg.Myopic {
			avail -= e.cfg.Profile.Rate(t-e.cfg.Skew[i]) * e.cfg.SchedulerHorizon * e.meanCost
		}
		if avail < 0 {
			avail = 0
		}
		v[i] = avail
	}

	// How much work to shed: down to the target backlog, but only queued
	// (not yet started) requests can move, and work accepted from other
	// proxies may not be counted toward the excess — a host cannot
	// re-export load it agreed to take (otherwise hop-by-hop displacement
	// would grant every proxy de-facto full transitivity regardless of
	// the enforced level).
	excess := p.backlog(t) - p.remoteWork - e.cfg.TargetBacklog*p.speed
	if excess > p.queuedWork-p.remoteWork {
		excess = p.queuedWork - p.remoteWork
	}
	if excess <= 0 {
		return
	}
	// The planner cannot place more than the requester's capacity.
	ask := min(excess, planner.Capacity(v, pIdx))
	if ask <= 0 {
		return
	}
	var err error
	e.sources, e.takes, _, err = planner.PlanPairs(e.sources[:0], e.takes[:0], v, pIdx, ask)
	if err != nil {
		if !errors.Is(err, core.ErrInsufficient) {
			e.res.PlanFailures++
		}
		return
	}
	e.shed(t, pIdx)
}

// shed moves queued requests from proxy p to the targets chosen by the
// plan in e.sources and e.takes. Requests are taken from the tail of the
// queue (latest arrivals), so the earliest-waiting clients keep their
// local positions.
func (e *engine) shed(t float64, pIdx int) {
	p := e.proxies[pIdx]
	budget := make([]float64, len(e.proxies))
	order := make([]int, 0, len(e.sources))
	for k, j := range e.sources {
		if j == pIdx || e.takes[k] <= 0 {
			continue
		}
		budget[j] = e.takes[k]
		order = append(order, j)
	}
	if len(order) == 0 {
		return
	}
	// Largest budget first: fill big holes with big requests.
	for i := 0; i < len(order); i++ {
		for k := i + 1; k < len(order); k++ {
			if budget[order[k]] > budget[order[i]] {
				order[i], order[k] = order[k], order[i]
			}
		}
	}
	for tail := len(p.queue) - 1; tail >= 0; tail-- {
		req := p.queue[tail]
		if req.redirected {
			continue // accepted work is never re-exported
		}
		moved := false
		for _, j := range order {
			if req.work <= budget[j]+1e-9 {
				budget[j] -= req.work
				p.queue = append(p.queue[:tail], p.queue[tail+1:]...)
				p.queuedWork -= req.work
				heap.Push(e.eq, event{
					t:     t,
					kind:  evRedirectArrival,
					proxy: j,
					work:  req.work + e.cfg.RedirectCost,
					orig:  req.origArrival,
					home:  req.home,
				})
				moved = true
				break
			}
		}
		if !moved {
			continue
		}
	}
	if p.queuedWork < 0 {
		p.queuedWork = 0
	}
}
