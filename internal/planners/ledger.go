package planners

import (
	"fmt"
	"sync"
)

// Ledger adds an allocation lifecycle on top of a Planner: it owns the
// availability vector, applies planned takes when a request is admitted,
// and returns them when the allocation is released, so resources flow back
// on job completion instead of leaking away. The batch simulator and the
// sharing facade use one; the GRM keeps its own books (package grm).
//
// A Ledger is safe for concurrent use.
type Ledger struct {
	planner Planner

	mu     sync.Mutex
	avail  []float64
	base   []float64 // reported capacity per principal (upper bound)
	leases map[int]*Lease
	nextID int
}

// Lease is one outstanding allocation, Takes[k] drawn from Sources[k].
type Lease struct {
	ID        int
	Requester int
	Amount    float64
	Sources   []int
	Takes     []float64
	// debits[k] = min(Takes[k], availability) is what Acquire took off
	// Sources[k] and Release credits back: a planner may draw past it.
	debits []float64
}

// NewLedger wraps a planner with lifecycle tracking; capacity is each
// principal's initial (and maximum) availability.
func NewLedger(planner Planner, capacity []float64) (*Ledger, error) {
	for i, c := range capacity {
		if c < 0 {
			return nil, fmt.Errorf("planners: NewLedger: capacity[%d] = %g negative", i, c)
		}
	}
	l := &Ledger{
		planner: planner,
		avail:   append([]float64(nil), capacity...),
		base:    append([]float64(nil), capacity...),
		leases:  map[int]*Lease{},
		nextID:  1,
	}
	return l, nil
}

// Available returns a copy of the current availability vector.
func (l *Ledger) Available() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.avail...)
}

// Capacities returns C_i at the current availability.
func (l *Ledger) Capacities() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]float64, len(l.avail))
	for i := range out {
		out[i] = l.planner.Capacity(l.avail, i)
	}
	return out
}

// SetCapacity updates a principal's reported capacity. Availability is
// adjusted by the same delta, floored at zero (outstanding leases are not
// disturbed; an over-committed principal simply reports no free capacity
// until leases drain).
func (l *Ledger) SetCapacity(principal int, capacity float64) error {
	if capacity < 0 {
		return fmt.Errorf("planners: SetCapacity: negative capacity %g", capacity)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if principal < 0 || principal >= len(l.base) {
		return fmt.Errorf("planners: SetCapacity: unknown principal %d", principal)
	}
	delta := capacity - l.base[principal]
	l.base[principal] = capacity
	l.avail[principal] = min(max(l.avail[principal]+delta, 0), capacity)
	return nil
}

// Acquire plans and admits an allocation atomically, returning the lease.
// The planner's core.ErrInsufficient passes through when capacity is short.
func (l *Ledger) Acquire(requester int, amount float64) (*Lease, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	sources, takes, _, err := l.planner.PlanPairs(nil, nil, l.avail, requester, amount)
	if err != nil {
		return nil, err
	}
	lease := &Lease{
		ID:        l.nextID,
		Requester: requester,
		Amount:    amount,
		Sources:   sources,
		Takes:     takes,
		debits:    make([]float64, len(takes)),
	}
	l.nextID++
	for k, i := range sources {
		lease.debits[k] = min(takes[k], l.avail[i])
		l.avail[i] = max(l.avail[i]-takes[k], 0)
	}
	l.leases[lease.ID] = lease
	return lease, nil
}

// Release returns a lease's resources to the pool. Releasing an unknown
// or already-released lease is an error (double releases would inflate
// availability).
func (l *Ledger) Release(id int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	lease, ok := l.leases[id]
	if !ok {
		return fmt.Errorf("planners: Release: unknown lease %d", id)
	}
	delete(l.leases, id)
	for k, i := range lease.Sources {
		l.avail[i] = min(l.avail[i]+lease.debits[k], l.base[i])
	}
	return nil
}

// Outstanding returns the number of live leases.
func (l *Ledger) Outstanding() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.leases)
}

// OutstandingFor sums the amounts currently leased by one principal.
func (l *Ledger) OutstandingFor(requester int) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var total float64
	for _, lease := range l.leases {
		if lease.Requester == requester {
			total += lease.Amount
		}
	}
	return total
}
