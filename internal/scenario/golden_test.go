package scenario

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/store"
)

// TestGoldenISPTenProxyMatchesProxysim cross-checks the checked-in
// isp-10proxy bundle against the proxysim pipeline: every granted
// allocation's takes and θ must match what sim.CompletePlanner(10, 0.1)
// plans over the availability vector the bundle records just before the
// request, and the post-op checkpoint must equal that vector minus the
// takes. The server and the simulator reach the paper's Figure 6–8
// structure through entirely different code paths (wire protocol +
// ledger vs agreement.BuildComplete), so a drift in either planner,
// the share bookkeeping, or the corpus itself fails here.
func TestGoldenISPTenProxyMatchesProxysim(t *testing.T) {
	b, err := ReadBundle("../../scenarios/isp-10proxy")
	if err != nil {
		t.Fatalf("read corpus bundle: %v", err)
	}
	planner, err := sim.CompletePlanner(10, 0.1, core.Config{Level: b.Meta.Level})
	if err != nil {
		t.Fatalf("build proxysim planner: %v", err)
	}
	tol := b.Meta.Tolerance
	if tol == 0 {
		tol = DefaultTolerance
	}
	checked := 0
	for i, ev := range b.Events {
		if ev.Op != OpAlloc {
			continue
		}
		prev, want := b.Expected[i-1], b.Expected[i]
		if prev == nil || want == nil {
			t.Fatalf("event %d: corpus not densely blessed", i)
		}
		if want.Err != "" {
			continue // refusals carry no takes to cross-check
		}
		v := append([]float64(nil), prev.Avail...)
		sources, takes, theta, err := planner.PlanPairs(nil, nil, v, ev.P, ev.Amount)
		if err != nil {
			t.Fatalf("event %d: proxysim refused alloc(p%d, %g) the server granted: %v", i, ev.P, ev.Amount, err)
		}
		dense := store.DenseTakes(sources, takes, len(v))
		if !vecClose(dense, want.Takes, tol) {
			t.Errorf("event %d: takes diverge\nproxysim: %v\ncorpus:   %v", i, dense, want.Takes)
		}
		if want.Theta == nil || math.Abs(theta-*want.Theta) > tol {
			t.Errorf("event %d: theta diverges: proxysim %g, corpus %v", i, theta, want.Theta)
		}
		// The ledger debits exactly the takes (no clamping can trigger:
		// takes never exceed availability on a granted request).
		for j, take := range dense {
			if math.Abs(want.Avail[j]-(prev.Avail[j]-take)) > tol {
				t.Errorf("event %d: post-alloc avail[%d] = %g, want %g - %g", i, j, want.Avail[j], prev.Avail[j], take)
			}
		}
		checked++
	}
	if checked < 4 {
		t.Fatalf("cross-checked only %d granted allocations; corpus lost coverage", checked)
	}
}
