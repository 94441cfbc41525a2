package planners

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/agreement"
	"repro/internal/core"
)

// Multi plans requests that span several resource types at once
// (Section 3.2: "a request for k types of resources is in the form of a
// vector <r_1, ..., r_k>; we solve k linear systems, one per resource").
// Each type has its own agreement matrices and its own allocator; a
// request either plans every type or fails atomically.
type Multi struct {
	planners map[string]*core.Allocator
	n        int
}

// NewMulti returns an empty multi-resource planner for n principals.
func NewMulti(n int) *Multi {
	return &Multi{planners: map[string]*core.Allocator{}, n: n}
}

// AddType registers the agreement matrices for one resource type.
func (mu *Multi) AddType(name string, s, a *agreement.SparseMatrix, cfg core.Config) error {
	if _, dup := mu.planners[name]; dup {
		return fmt.Errorf("planners: resource type %q already registered", name)
	}
	if s.N() != mu.n {
		return fmt.Errorf("planners: type %q has %d principals, planner has %d", name, s.N(), mu.n)
	}
	al, err := core.NewAllocator(s, a, cfg)
	if err != nil {
		return err
	}
	mu.planners[name] = al
	return nil
}

// Types returns the registered resource type names, sorted.
func (mu *Multi) Types() []string {
	out := make([]string, 0, len(mu.planners))
	for t := range mu.planners {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Plan allocates a multi-type request: request[t] units of each type t for
// the requester, given availability v[t] per type. If any type cannot be
// satisfied the whole request fails and nothing is reported as allocated.
func (mu *Multi) Plan(v map[string][]float64, requester int, request map[string]float64) (map[string]*Pairs, error) {
	// Deterministic order, and validation before any planning.
	types := make([]string, 0, len(request))
	for t := range request {
		if _, ok := mu.planners[t]; !ok {
			return nil, fmt.Errorf("planners: unknown resource type %q in request", t)
		}
		if _, ok := v[t]; !ok {
			return nil, fmt.Errorf("planners: no availability vector for type %q", t)
		}
		types = append(types, t)
	}
	sort.Strings(types)
	out := make(map[string]*Pairs, len(types))
	for _, t := range types {
		sources, takes, theta, err := mu.planners[t].PlanPairs(nil, nil, v[t], requester, request[t])
		if err != nil {
			return nil, fmt.Errorf("planners: type %q: %w", t, err)
		}
		out[t] = &Pairs{Sources: sources, Takes: takes, Theta: theta}
	}
	return out, nil
}

// Capacities returns C_i per registered type.
func (mu *Multi) Capacities(v map[string][]float64) (map[string][]float64, error) {
	out := make(map[string][]float64, len(mu.planners))
	for t, p := range mu.planners {
		vec, ok := v[t]
		if !ok {
			return nil, fmt.Errorf("planners: no availability vector for type %q", t)
		}
		out[t] = p.Capacities(vec)
	}
	return out, nil
}

// Coupled plans requests for resources that must be allocated together
// from the same principal (Section 3.2's CPU+memory example): the
// component types are bound into a bundle with fixed per-bundle rates, and
// the bundle is allocated as a single new resource type.
type Coupled struct {
	alloc *core.Allocator
	rates map[string]float64
	types []string
}

// NewCoupled builds a bundle planner. rates gives the amount of each
// component type consumed per bundle unit (all positive); s and a are the
// agreement matrices governing the bundle (the paper treats the bound
// combination as a new resource type with its own agreements).
func NewCoupled(s, a *agreement.SparseMatrix, cfg core.Config, rates map[string]float64) (*Coupled, error) {
	if len(rates) == 0 {
		return nil, fmt.Errorf("planners: NewCoupled: empty rate table")
	}
	types := make([]string, 0, len(rates))
	for t, r := range rates {
		if r <= 0 {
			return nil, fmt.Errorf("planners: NewCoupled: rate for %q is %g, must be positive", t, r)
		}
		types = append(types, t)
	}
	sort.Strings(types)
	al, err := core.NewAllocator(s, a, cfg)
	if err != nil {
		return nil, err
	}
	return &Coupled{alloc: al, rates: rates, types: types}, nil
}

// BundleAvailability converts per-type availability into per-principal
// bundle counts: the number of whole-rate bundles each principal can
// supply is limited by its scarcest component.
func (c *Coupled) BundleAvailability(v map[string][]float64) ([]float64, error) {
	n := c.alloc.N()
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Inf(1)
	}
	for _, t := range c.types {
		vec, ok := v[t]
		if !ok {
			return nil, fmt.Errorf("planners: no availability vector for component %q", t)
		}
		if len(vec) != n {
			return nil, fmt.Errorf("planners: component %q has %d principals, want %d", t, len(vec), n)
		}
		for i, x := range vec {
			if b := x / c.rates[t]; b < out[i] {
				out[i] = b
			}
		}
	}
	return out, nil
}

// Plan allocates `bundles` coupled units for the requester and expands the
// result into per-component takes over the bundle plan's one Sources
// slice: every component of a bundle comes from the same principal.
func (c *Coupled) Plan(v map[string][]float64, requester int, bundles float64) (map[string]*Pairs, error) {
	avail, err := c.BundleAvailability(v)
	if err != nil {
		return nil, err
	}
	sources, takes, theta, err := c.alloc.PlanPairs(nil, nil, avail, requester, bundles)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*Pairs, len(c.types))
	for _, t := range c.types {
		p := &Pairs{Sources: sources, Takes: make([]float64, len(takes)), Theta: theta}
		for k, x := range takes {
			p.Takes[k] = x * c.rates[t]
		}
		out[t] = p
	}
	return out, nil
}
