// Package sharing is the public API of the library: expressing resource
// sharing agreements with tickets and currencies, and enforcing them with
// the LP-based global allocator, as described in "Expressing and Enforcing
// Distributed Resource Sharing Agreements" (Zhao & Karamcheti, SC 2000).
//
// A Community holds principals, their resources and their agreements.
// Expression follows Section 2 of the paper (absolute/relative tickets,
// per-principal and virtual currencies); enforcement follows Section 3
// (transitive capacity computation over exact cycle-free agreement chains,
// and allocation minimizing the global perturbation metric θ):
//
//	c := sharing.NewCommunity()
//	a := c.AddPrincipal("A")
//	b := c.AddPrincipal("B")
//	c.AddResource(a, "disk", 10)
//	c.AddResource(b, "disk", 15)
//	c.ShareFraction(a, b, 0.5)                 // A shares 50% with B
//	caps, _ := c.Capacities("disk")            // => B can reach 20
//	plan, _ := c.Allocate(b, "disk", 18)       // where to take 18 from
//
// For the underlying pieces — the ticket/currency registry, the LP solver,
// the transitive-closure engine, the proxy-simulation case study, and the
// networked GRM/LRM managers — see the internal packages; this facade
// covers the common path end to end.
package sharing

import (
	"fmt"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/planners"
)

// Principal identifies a participant of the community.
type Principal = agreement.PrincipalID

// Ticket identifies an agreement so it can be revoked later.
type Ticket = agreement.TicketID

// Allocation reports where an allocation draws resources from.
type Allocation struct {
	// Take[p] is the amount taken from principal p; the entries sum to
	// the requested amount.
	Take []float64
	// Theta is the realized perturbation metric: the largest capacity
	// drop the allocation inflicts on any other principal.
	Theta float64
}

// Config tunes enforcement.
type Config struct {
	// Level is the transitivity level (0 = full closure, 1 = direct
	// agreements only, m = chains of at most m agreements). Flow
	// coefficients are always exact sums over cycle-free chains. A
	// community too dense to sum at the level asked for is refused; a
	// lower Level admits it, and grants less than full transitivity,
	// never more.
	Level int
}

// Community is a set of principals bound by resource sharing agreements.
// It is not safe for concurrent mutation; allocation methods are
// read-only and may be called concurrently with each other.
type Community struct {
	sys     *agreement.System
	cfg     Config
	res     map[Principal]map[string]agreement.ResourceID
	planner map[string]*core.Allocator // per resource type, invalidated on change
}

// NewCommunity returns an empty community with default enforcement
// (full transitive closure, exact coefficients).
func NewCommunity() *Community { return NewCommunityWithConfig(Config{}) }

// NewCommunityWithConfig returns an empty community with explicit
// enforcement configuration.
func NewCommunityWithConfig(cfg Config) *Community {
	return &Community{
		sys:     agreement.NewSystem(),
		cfg:     cfg,
		res:     map[Principal]map[string]agreement.ResourceID{},
		planner: map[string]*core.Allocator{},
	}
}

// AddPrincipal registers a participant.
func (c *Community) AddPrincipal(name string) Principal {
	c.invalidate()
	return c.sys.AddPrincipal(name)
}

// Principals returns the number of registered principals.
func (c *Community) Principals() int { return c.sys.NumPrincipals() }

// Name returns a principal's name.
func (c *Community) Name(p Principal) string { return c.sys.Principal(p).Name }

// AddResource registers (or tops up) capacity of a resource type owned by
// a principal.
func (c *Community) AddResource(owner Principal, typ string, capacity float64) error {
	c.invalidate()
	if byType, ok := c.res[owner]; ok {
		if rid, ok := byType[typ]; ok {
			old := c.sys.Resource(rid).Capacity
			return c.sys.SetCapacity(rid, old+capacity)
		}
	}
	rid, err := c.sys.AddResource(fmt.Sprintf("%s/%s", c.Name(owner), typ),
		agreement.ResourceType(typ), owner, capacity)
	if err != nil {
		return err
	}
	if c.res[owner] == nil {
		c.res[owner] = map[string]agreement.ResourceID{}
	}
	c.res[owner][typ] = rid
	return nil
}

// SetCapacity replaces the capacity of a principal's resource.
func (c *Community) SetCapacity(owner Principal, typ string, capacity float64) error {
	c.invalidate()
	byType, ok := c.res[owner]
	if !ok {
		return fmt.Errorf("sharing: %s owns no resources", c.Name(owner))
	}
	rid, ok := byType[typ]
	if !ok {
		return fmt.Errorf("sharing: %s owns no %q resource", c.Name(owner), typ)
	}
	return c.sys.SetCapacity(rid, capacity)
}

// ShareFraction expresses a relative sharing agreement: `from` shares the
// given fraction (0, 1] of its fluctuating resources with `to`. The
// returned ticket can be revoked.
func (c *Community) ShareFraction(from, to Principal, fraction float64) (Ticket, error) {
	c.invalidate()
	if fraction <= 0 || fraction > 1 {
		return 0, fmt.Errorf("sharing: fraction %g outside (0, 1]", fraction)
	}
	cur := c.sys.CurrencyOf(from)
	units := fraction * c.sys.Currency(cur).FaceValue
	return c.sys.ShareRelative(cur, c.sys.CurrencyOf(to), units)
}

// ShareQuantity expresses an absolute sharing agreement of a fixed
// quantity of one resource type.
func (c *Community) ShareQuantity(from, to Principal, typ string, quantity float64) (Ticket, error) {
	c.invalidate()
	return c.sys.ShareAbsolute(c.sys.CurrencyOf(from), c.sys.CurrencyOf(to),
		agreement.ResourceType(typ), quantity, agreement.Sharing)
}

// Grant transfers a fixed quantity to the grantee until revoked (a
// granting agreement: the grantor gives the resource up).
func (c *Community) Grant(from, to Principal, typ string, quantity float64) (Ticket, error) {
	c.invalidate()
	return c.sys.ShareAbsolute(c.sys.CurrencyOf(from), c.sys.CurrencyOf(to),
		agreement.ResourceType(typ), quantity, agreement.Granting)
}

// Revoke cancels an agreement.
func (c *Community) Revoke(t Ticket) {
	c.invalidate()
	c.sys.Revoke(t)
}

// System exposes the underlying ticket/currency registry for advanced use
// (virtual currencies, inflation, valuation). Mutating it invalidates
// cached planners on the next Community call.
func (c *Community) System() *agreement.System {
	c.invalidate() // assume the caller mutates
	return c.sys
}

// CheckConservative verifies that no principal has promised more than
// 100% of its resources (the paper's basic-model restriction; violating
// it is legal "overdraft" and enforcement caps it, but callers may want
// to know).
func (c *Community) CheckConservative() error { return c.sys.CheckConservative() }

// Values returns the value of every principal's currency for one resource
// type — the valuation of Section 2 (Example 1's numbers).
func (c *Community) Values(typ string) (map[Principal]float64, error) {
	v, err := c.sys.Values(agreement.ResourceType(typ))
	if err != nil {
		return nil, err
	}
	out := make(map[Principal]float64, c.sys.NumPrincipals())
	for i := 0; i < c.sys.NumPrincipals(); i++ {
		p := Principal(i)
		out[p] = v[c.sys.CurrencyOf(p)]
	}
	return out, nil
}

// Capacities returns C_i for every principal: own capacity plus what is
// reachable directly and transitively through agreements.
func (c *Community) Capacities(typ string) ([]float64, error) {
	planner, v, err := c.plannerFor(typ)
	if err != nil {
		return nil, err
	}
	return planner.Capacities(v), nil
}

// Capacity returns C_p for one principal.
func (c *Community) Capacity(p Principal, typ string) (float64, error) {
	caps, err := c.Capacities(typ)
	if err != nil {
		return 0, err
	}
	return caps[p], nil
}

// Allocate plans an allocation of `amount` units of a resource type for a
// principal, choosing sources that minimize the perturbation metric θ.
// It returns core.ErrInsufficient (wrapped) when C_p < amount.
func (c *Community) Allocate(p Principal, typ string, amount float64) (*Allocation, error) {
	planner, v, err := c.plannerFor(typ)
	if err != nil {
		return nil, err
	}
	sources, takes, theta, err := planner.PlanPairs(nil, nil, v, int(p), amount)
	if err != nil {
		return nil, err
	}
	take := make([]float64, len(v))
	for k, i := range sources {
		take[i] = takes[k]
	}
	return &Allocation{Take: take, Theta: theta}, nil
}

// Consume permanently removes an allocation's takes from the owners'
// capacities (call after actually using the resources).
func (c *Community) Consume(typ string, a *Allocation) error {
	for i, take := range a.Take {
		if take == 0 {
			continue
		}
		p := Principal(i)
		byType, ok := c.res[p]
		if !ok {
			return fmt.Errorf("sharing: %s owns no resources", c.Name(p))
		}
		rid, ok := byType[typ]
		if !ok {
			return fmt.Errorf("sharing: %s owns no %q resource", c.Name(p), typ)
		}
		left := c.sys.Resource(rid).Capacity - take
		if left < 0 {
			left = 0
		}
		if err := c.sys.SetCapacity(rid, left); err != nil {
			return err
		}
	}
	c.invalidate()
	return nil
}

// FlowCoefficients returns the capped transitive coefficients K for one
// resource type: K[i][j] is the fraction of i's capacity reachable by j.
func (c *Community) FlowCoefficients(typ string) ([][]float64, error) {
	planner, _, err := c.plannerFor(typ)
	if err != nil {
		return nil, err
	}
	return planner.FlowCoefficients(), nil
}

// plannerFor returns (building if needed) the allocator for a type plus
// the current availability vector.
func (c *Community) plannerFor(typ string) (*core.Allocator, []float64, error) {
	m, err := c.sys.SparseMatrices(agreement.ResourceType(typ))
	if err != nil {
		return nil, nil, err
	}
	planner, ok := c.planner[typ]
	if !ok {
		planner, err = core.NewAllocator(m.S, m.A, core.Config{Level: c.cfg.Level})
		if err != nil {
			return nil, nil, err
		}
		c.planner[typ] = planner
	}
	return planner, m.V, nil
}

func (c *Community) invalidate() {
	for k := range c.planner {
		delete(c.planner, k)
	}
}

// Validate is the agreement-matrix sanity check for callers driving core
// directly: S must be square with a zero diagonal and non-negative
// entries. Row sums above 1 are legal (the paper's overdraft extension);
// enforcement caps them.
func Validate(s [][]float64) error {
	m, err := agreement.SparseOf(s)
	if err != nil || m == nil {
		return err
	}
	_, err = core.NewAllocator(m, nil, core.Config{Level: 1})
	return err
}

// Ledger returns a lease-tracking allocator over one resource type,
// seeded with the current capacities: Acquire plans and admits an
// allocation atomically, Release returns it. Use it when allocations have
// a lifetime (jobs, sessions) rather than being consumed outright.
// Agreements changed after the call do not affect an existing ledger.
func (c *Community) Ledger(typ string) (*planners.Ledger, error) {
	planner, v, err := c.plannerFor(typ)
	if err != nil {
		return nil, err
	}
	return planners.NewLedger(planner, v)
}

// Snapshot serializes the community's principals, resources and live
// agreements (the JSON format cmd/grmd and cmd/agreements consume).
func (c *Community) Snapshot() *agreement.Snapshot { return c.sys.Snapshot() }

// FromSnapshot rebuilds a community from a snapshot with the given
// enforcement configuration. The returned map resolves principal names.
func FromSnapshot(snap *agreement.Snapshot, cfg Config) (*Community, map[string]Principal, error) {
	sys, principals, err := snap.Restore()
	if err != nil {
		return nil, nil, err
	}
	c := NewCommunityWithConfig(cfg)
	c.sys = sys
	c.reindexResources()
	return c, principals, nil
}

// reindexResources rebuilds the owner/type → resource lookup after the
// underlying system was replaced wholesale.
func (c *Community) reindexResources() {
	c.res = map[Principal]map[string]agreement.ResourceID{}
	for i := 0; i < c.sys.NumResources(); i++ {
		r := c.sys.Resource(agreement.ResourceID(i))
		if c.res[r.Owner] == nil {
			c.res[r.Owner] = map[string]agreement.ResourceID{}
		}
		c.res[r.Owner][string(r.Type)] = r.ID
	}
}
