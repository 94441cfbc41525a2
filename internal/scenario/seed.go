package scenario

import (
	"fmt"
	"path/filepath"
)

// This file builds the checked-in corpus under scenarios/: each builder
// lays out the event schedule of one scenario, and Seed blesses it by
// replaying against a live server — the recorded actual outcomes become
// the bundle's expected.jsonl. Re-run via `scenario seed` after an
// intentional behavior change, and review the diff like any golden file.

// seedBuilders enumerates the corpus. Order is the inventory order in
// SCENARIOS.md.
var seedBuilders = []func() *Bundle{
	ispTenProxy,
	taxonomyLoop,
	taxonomyDecay,
	federationChurn,
	treeThreeLevel,
	voCPUSharing,
	fairnessStress,
	leaseChurn,
}

// Seed builds, blesses, and writes the full corpus under dir.
func Seed(dir string) ([]string, error) {
	var written []string
	for _, build := range seedBuilders {
		b := build()
		res, err := Replay(b, ReplayOptions{Bless: true})
		if err == nil && res.Divergence != nil {
			err = res.Divergence // books that fail the check are not blessed
		}
		if err != nil {
			return written, fmt.Errorf("scenario: seed %s: %w", b.Meta.Name, err)
		}
		b.Expected = res.Actual
		out := filepath.Join(dir, b.Meta.Name)
		if err := WriteBundle(out, b); err != nil {
			return written, fmt.Errorf("scenario: seed %s: %w", b.Meta.Name, err)
		}
		written = append(written, out)
	}
	return written, nil
}

// builder accumulates a schedule.
type builder struct {
	meta   Meta
	events []Event
}

func newBuilder(name, title, source string) *builder {
	return &builder{meta: Meta{
		Format: FormatVersion,
		Name:   name,
		Title:  title,
		Source: source,
	}}
}

func (b *builder) add(t int64, ev Event) {
	ev.T = t
	b.events = append(b.events, ev)
}

func (b *builder) reg(t int64, name string, capacity float64) {
	b.add(t, Event{Op: OpRegister, Name: name, Capacity: capacity})
}
func (b *builder) rep(t int64, p int, v float64) {
	b.add(t, Event{Op: OpReport, P: p, V: v})
}
func (b *builder) shr(t int64, from, to int, fraction float64) {
	b.add(t, Event{Op: OpShare, P: from, To: to, Fraction: fraction})
}
func (b *builder) alc(t int64, p int, amount float64) {
	b.add(t, Event{Op: OpAlloc, P: p, Amount: amount})
}
func (b *builder) rel(t int64, lease int) {
	b.add(t, Event{Op: OpRelease, Lease: lease})
}
func (b *builder) ren(t int64, lease int) {
	b.add(t, Event{Op: OpRenew, Lease: lease})
}
func (b *builder) kil(t int64, p int) {
	b.add(t, Event{Op: OpKill, P: p})
}
func (b *builder) adv(t int64) {
	b.add(t, Event{Op: OpAdvance})
}
func (b *builder) att(t int64, name string, siblings ...SiblingSpec) {
	b.add(t, Event{Op: OpAttach, Name: name, Parent: &ParentSpec{Siblings: siblings}})
}

func (b *builder) bundle() *Bundle {
	b.meta.Events = len(b.events)
	return &Bundle{Meta: b.meta, Events: b.events, Expected: map[int]*Outcome{}}
}

// ispTenProxy is the paper's case study: 10 ISP proxies in a complete
// agreement graph, each sharing 10% with every other (Figures 6–8). The
// first allocation wave runs at a known availability vector so the
// golden test can cross-check takes and θ against the same
// sim.CompletePlanner(10, 0.1) pipeline proxysim uses.
func ispTenProxy() *Bundle {
	b := newBuilder("isp-10proxy",
		"10-proxy ISP complete graph, 10% pairwise shares",
		"paper §4 case study (Figures 6–8); cross-checked against sim.CompletePlanner")
	const n = 10
	for i := 0; i < n; i++ {
		b.reg(0, fmt.Sprintf("isp%d", i), 1)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				b.shr(0, i, j, 0.1)
			}
		}
	}
	// Morning: availability rises west to east.
	for i := 0; i < n; i++ {
		b.rep(1000, i, 0.2+0.08*float64(i))
	}
	b.alc(2000, 0, 0.5) // lease 1 — the golden-checked allocation
	b.alc(2100, 5, 0.8) // lease 2
	b.alc(2200, 9, 0.6) // lease 3
	b.rel(3000, 1)
	b.rel(3100, 2)
	// Evening: the tide reverses.
	for i := 0; i < n; i++ {
		b.rep(4000, i, 0.9-0.05*float64(i))
	}
	b.alc(5000, 3, 1.2) // lease 4
	b.rel(6000, 3)
	b.rel(6100, 4)
	return b.bundle()
}

// taxonomyLoop is DESIGN.md's Figure 9 structure: a cyclic loop where
// ISP i shares 80% with its skip-1 neighbor, replayed at transitivity
// level 2 so enforcement stops two hops around the ring.
func taxonomyLoop() *Bundle {
	b := newBuilder("taxonomy-loop",
		"cyclic loop, 80% skip-1 shares, transitivity level 2",
		"DESIGN.md taxonomy (Figure 9: loop structures)")
	b.meta.Level = 2
	const n = 10
	for i := 0; i < n; i++ {
		b.reg(0, fmt.Sprintf("ISP%d", i), 1)
	}
	for i := 0; i < n; i++ {
		b.shr(0, i, (i+1)%n, 0.8)
	}
	// Half the ring is idle, half busy: the busy side reaches two hops
	// upstream and no farther.
	for i := 0; i < n; i++ {
		v := 1.0
		if i >= n/2 {
			v = 0.1
		}
		b.rep(1000, i, v)
	}
	// p5 sits just downstream of the idle half: level 2 reaches p4 and
	// p3, so a pull far past its own 0.1 succeeds.
	b.alc(2000, 5, 0.9) // lease 1
	b.alc(2100, 6, 0.6) // lease 2: one idle hop left within reach
	// p7's two-hop upstream (p5, p6) is all busy: the idle capacity
	// three hops away is invisible at level 2, so this is refused.
	b.alc(2200, 7, 0.9)
	b.rel(3000, 1)
	return b.bundle()
}

// taxonomyDecay is DESIGN.md's Figure 13 structure: a complete graph
// whose share fractions decay with circular time-zone distance
// (20%, 10%, 5%, then 3% for everyone farther).
func taxonomyDecay() *Bundle {
	b := newBuilder("taxonomy-decay",
		"distance-decay complete graph (20/10/5/3% by time-zone distance)",
		"DESIGN.md taxonomy (Figure 13: distance decay)")
	const n = 8
	decay := []float64{0.20, 0.10, 0.05, 0.03}
	for i := 0; i < n; i++ {
		b.reg(0, fmt.Sprintf("tz%d", i), 1)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			d := i - j
			if d < 0 {
				d = -d
			}
			if n-d < d {
				d = n - d
			}
			idx := d - 1
			if idx >= len(decay) {
				idx = len(decay) - 1
			}
			b.shr(0, i, j, decay[idx])
		}
	}
	for i := 0; i < n; i++ {
		b.rep(1000, i, 0.5)
	}
	b.alc(2000, 0, 0.7) // lease 1: mostly near neighbors
	b.alc(2100, 4, 0.7) // lease 2: the antipode draws symmetrically
	b.rel(3000, 1)
	b.rel(3100, 2)
	return b.bundle()
}

// federationChurn exercises the multi-level GRM architecture: a
// two-node cluster attaches to a parent GRM with two sibling clusters,
// borrows when local capacity falls short, repays on release, and
// repays again when a borrow-backed lease expires.
func federationChurn() *Bundle {
	b := newBuilder("federation-churn",
		"federation borrow/repay churn through a parent GRM",
		"DESIGN.md §7b layered GRM; paper §3 multi-level architecture")
	b.meta.TTLMS = 10_000
	b.reg(0, "node0", 2)
	b.reg(0, "node1", 2)
	b.att(500, "cluster",
		SiblingSpec{Name: "sib0", Capacity: 5, Fraction: 0.5},
		SiblingSpec{Name: "sib1", Capacity: 3, Fraction: 0.25})
	b.alc(1000, 0, 3)   // beyond local capacity: borrow 1 from the parent (lease 1)
	b.rel(2000, 1)      // release repays the parent lease
	b.alc(3000, 1, 3.5) // borrow again (lease 2)
	b.ren(4000, 2)      // renewed: expires at t=14000
	b.adv(15_000)       // expiry reaps the lease and repays the borrow
	b.rep(15_500, 0, 1.5)
	return b.bundle()
}

// treeThreeLevel stacks the full three-level GRM tree inside one replay:
// a two-node leaf cluster under a capacity-poor mid-level region, itself
// attached to a root with lendable capacity. A leaf deficit larger than
// the region can cover forces the borrow to chain leaf→region→root, and
// release and lease expiry repay back down the same chain.
func treeThreeLevel() *Bundle {
	b := newBuilder("tree-3level",
		"chained borrow/repay through a three-level GRM tree",
		"DESIGN.md §7d sharding & the GRM tree; paper §3 multi-level architecture")
	b.meta.TTLMS = 10_000
	b.reg(0, "node0", 2)
	b.reg(0, "node1", 2)
	// One attach raises the whole branch: the leaf joins region-east as
	// "site-a"; region-east — whose only local lender holds 1 unit —
	// joins the root, where root-buffer shares half of 8 units with it.
	b.add(500, Event{Op: OpAttach, Name: "site-a", Parent: &ParentSpec{
		Siblings: []SiblingSpec{{Name: "mid-buffer", Capacity: 1, Fraction: 1}},
		Name:     "region-east",
		Parent: &ParentSpec{
			Siblings: []SiblingSpec{
				{Name: "root-buffer", Capacity: 8, Fraction: 0.5},
				{Name: "region-west", Capacity: 4},
			},
		},
	}})
	// The region sees 5 lendable units (the cluster's own aggregate of 4
	// plus mid-buffer's 1), so a borrow of 6 can only be covered by the
	// region borrowing the last unit from the root: the checkpointed
	// region books drain to zero while the grant still lands in full.
	b.alc(1000, 0, 8)   // leaf covers 2, borrows 6 — chained leaf→region→root (lease 1)
	b.rel(2000, 1)      // release repays the chain bottom-up
	b.alc(3000, 1, 7.5) // borrow 5.5: again past the region's 5, again into the root (lease 2)
	b.ren(4000, 2)      // renewed: expires at t=14000
	b.adv(15_000)       // expiry reaps the lease and repays through both levels
	b.rep(15_500, 0, 1.5)
	b.alc(16_000, 0, 2) // the pool is whole again after the repay (lease 3)
	b.rel(17_000, 3)
	return b.bundle()
}

// voCPUSharing models VO usage policies per Dumitrescu & Foster: two
// sites grant fixed fractions of their CPUs to virtual organizations
// registered as zero-capacity principals, and the GRM enforces each
// VO's aggregate entitlement.
func voCPUSharing() *Bundle {
	b := newBuilder("vo-cpu-sharing",
		"VO usage-policy CPU sharing across two sites",
		"Dumitrescu & Foster, usage policy-based CPU sharing in VOs (PAPERS.md)")
	b.reg(0, "siteA", 100)
	b.reg(0, "siteB", 60)
	b.reg(0, "vo-cms", 0)
	b.reg(0, "vo-atlas", 0)
	b.shr(100, 0, 2, 0.30) // siteA → cms 30%
	b.shr(100, 0, 3, 0.20) // siteA → atlas 20%
	b.shr(100, 1, 2, 0.50) // siteB → cms 50%
	b.alc(1000, 2, 50)     // cms entitlement 0.3·100 + 0.5·60 = 60: granted (lease 1)
	b.alc(1100, 3, 15)     // atlas entitlement 20: granted (lease 2)
	// Relative shares track the sites' remaining availability, so cms's
	// entitlement regrows against what the sites still have: granted.
	b.alc(1200, 2, 20) // lease 3
	b.alc(1300, 0, 40) // the site itself reaches its unshared remainder (lease 4)
	b.alc(1400, 2, 55) // now past the shrunken entitlement: refused
	b.rel(2000, 1)
	b.alc(2100, 2, 30) // the release restored the entitlement: granted (lease 5)
	b.rel(3000, 2)
	b.rel(3100, 3)
	b.rel(3200, 4)
	b.rel(3300, 5)
	return b.bundle()
}

// fairnessStress is the "No Justified Complaints" shape: six peers with
// equal pairwise shares under scarcity, where later allocations pay
// rising perturbation θ until requests are refused, and releases
// restore the pool for a clean second wave.
func fairnessStress() *Bundle {
	b := newBuilder("fairness-stress",
		"equal-share fairness under multi-resource scarcity",
		"\"No Justified Complaints\" fair division (PAPERS.md)")
	const n = 6
	for i := 0; i < n; i++ {
		b.reg(0, fmt.Sprintf("peer%d", i), 1)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				b.shr(0, i, j, 1.0/n)
			}
		}
	}
	for i := 0; i < n; i++ {
		b.rep(1000, i, 0.15) // scarcity: 0.9 units system-wide
	}
	// First wave: everyone asks for more than their own availability
	// but within their entitlement — early requesters are granted at
	// rising θ, late ones hit the drained pool and are refused.
	for i := 0; i < n; i++ {
		b.alc(2000+int64(i)*100, i, 0.2)
	}
	// Second wave into the drained pool: refusals, books untouched.
	b.alc(3000, 0, 0.3)
	b.alc(3100, 5, 0.5)
	// Releasing the first grant restores the pool; a bogus token is
	// refused without touching the books; then allocation works again.
	b.rel(4000, 1)
	b.rel(4100, 99)
	b.alc(5000, 3, 0.25)
	return b.bundle()
}

// leaseChurn exercises the lease lifecycle under connection churn: TTL
// expiry via advance, survival via renew, and a killed connection whose
// transparent reconnect re-registers and replays the last report.
func leaseChurn() *Bundle {
	b := newBuilder("lease-churn",
		"lease expiry, renewal, and reconnect churn",
		"DESIGN.md §5a failure semantics")
	b.meta.TTLMS = 5_000
	b.reg(0, "a", 4)
	b.reg(0, "b", 4)
	b.reg(0, "c", 2)
	b.shr(100, 0, 2, 0.5) // a → c 50%
	b.shr(100, 1, 2, 0.25)
	b.alc(1000, 2, 3) // lease 1, expires t=6000
	b.alc(1200, 0, 2) // lease 2, expires t=6200
	b.ren(4000, 1)    // lease 1 now expires t=9000
	b.kil(4500, 1)    // kill b's connection: reconnect re-registers + re-reports
	b.adv(6500)       // lease 2 expired; lease 1 renewed and alive
	b.rep(7000, 1, 3.5)
	b.adv(9500)         // lease 1 expires too
	b.alc(10_000, 2, 1) // pool is whole again (lease 3)
	b.rel(10_500, 3)
	return b.bundle()
}
