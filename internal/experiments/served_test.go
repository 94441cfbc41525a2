package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grm"
	"repro/internal/planners"
	"repro/internal/sim"
)

// servedPlanner is a planners.Planner whose plans a grm.Server makes, in
// process through Handle: every proxy is an LRM registered with the server,
// and the agreements reach it as share requests. A consult reports every
// proxy's availability and then asks, so the server plans over exactly the
// vector the simulator holds; an allocation is released at once, because
// the simulator keeps no leases. The lock makes each consult one step of
// the server's books, whichever simulation asks.
type servedPlanner struct {
	mu  sync.Mutex
	srv *grm.Server
}

// newServedPlanner registers al's principals with a fresh server running
// cfg and shares al's agreements with it, relative and absolute.
func newServedPlanner(t *testing.T, al *core.Allocator, cfg core.Config) *servedPlanner {
	p := &servedPlanner{srv: grm.NewServer(cfg, nil)}
	t.Cleanup(func() { p.srv.Close() })
	n := al.N()
	for i := 0; i < n; i++ {
		p.handle(&grm.Request{Register: &grm.RegisterRequest{Name: fmt.Sprintf("isp%d", i)}})
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if f := al.Share(i, j); f > 0 {
				p.handle(&grm.Request{Share: &grm.ShareRequest{From: i, To: j, Fraction: f}})
			}
			if q := al.Agreement(i, j); q > 0 {
				p.handle(&grm.Request{Share: &grm.ShareRequest{From: i, To: j, Quantity: q}})
			}
		}
	}
	return p
}

// handle serves one request and panics on a refusal: nothing but an
// allocation may be refused here.
func (p *servedPlanner) handle(req *grm.Request) *grm.Response {
	resp := p.srv.Handle(req)
	if resp.Err != "" {
		panic(resp.Err)
	}
	return resp
}

// report sets every principal's availability to v.
func (p *servedPlanner) report(v []float64) {
	for i, x := range v {
		p.handle(&grm.Request{Report: &grm.ReportRequest{Principal: i, Available: x}})
	}
}

// Capacity reads C_i from the caps request at availability v.
func (p *servedPlanner) Capacity(v []float64, i int) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.report(v)
	return p.handle(&grm.Request{Caps: &grm.CapsRequest{}}).Caps.Capacities[i]
}

// PlanPairs reports v, allocates, and releases the lease at once. A
// refusal for want of capacity wraps core.ErrInsufficient, as the
// in-process planner's does.
func (p *servedPlanner) PlanPairs(sources []int, takes []float64, v []float64, requester int, amount float64) ([]int, []float64, float64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.report(v)
	resp := p.srv.Handle(&grm.Request{Alloc: &grm.AllocRequest{Principal: requester, Amount: amount}})
	if resp.Err != "" {
		if strings.Contains(resp.Err, core.ErrInsufficient.Error()) {
			return sources, takes, 0, fmt.Errorf("%w (served: %s)", core.ErrInsufficient, resp.Err)
		}
		return sources, takes, 0, fmt.Errorf("served: %s", resp.Err)
	}
	a := resp.Alloc
	p.handle(&grm.Request{Release: &grm.ReleaseRequest{Lease: a.Lease}})
	return append(sources, a.Sources...), append(takes, a.Takes...), a.Theta, nil
}

// TestServedPlannerReproducesFig6 drives Figure 6 at scale 20 (cmd/proxysim
// -figure 6 -scale 20) once with the LP planner in process and once with
// every consult served by a grm.Server, and holds the two to the same
// summary, byte for byte, and the same results. In process the takes never
// cross an encoding, and the server plans with the same allocator over the
// same availability, so no ε is needed.
func TestServedPlannerReproducesFig6(t *testing.T) {
	o := Options{Scale: 20}.normalize()
	p, m := o.workload()
	local, err := sim.CompletePlanner(o.Proxies, 0.1, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	served := newServedPlanner(t, local.(*core.Allocator), core.Config{})
	var wall [2]time.Duration
	consults, redirected := 0, 0
	for _, gap := range []float64{0, 1200, 2400, 3600} {
		var summaries [2]string
		var results [2]*sim.Result
		for k, planner := range []planners.Planner{local, served} {
			cfg := o.baseConfig(p, m)
			cfg.Skew = sim.SkewVector(o.Proxies, gap)
			cfg.Planner = planner
			start := time.Now()
			res, err := sim.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			wall[k] += time.Since(start)
			results[k] = res
			summaries[k] = fmt.Sprintf("gap %4.0f s: ISP0 worst slot %.2f s, overall mean %.3f s",
				gap, maxOf(res.PerProxyWait[0].Means()), res.Overall.Mean())
		}
		if summaries[0] != summaries[1] {
			t.Errorf("in process: %s\nserved:     %s", summaries[0], summaries[1])
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Errorf("gap %g: the served run's results differ from the in-process run's", gap)
		}
		consults, redirected = consults+results[1].Consults, redirected+results[1].Redirected
	}
	if redirected == 0 {
		t.Fatalf("%d served consults redirected nothing: the figure never exercised the server's plans", consults)
	}
	t.Logf("%d served consults, %d requests redirected: %v served, %v in process", consults, redirected, wall[1], wall[0])
}
