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

// Lease is one outstanding allocation.
type Lease struct {
	ID        int
	Requester int
	Amount    float64
	Take      []float64
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
	v := append([]float64(nil), l.avail...)
	l.mu.Unlock()
	return l.planner.Capacities(v)
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
	v := append([]float64(nil), l.avail...)
	plan, err := l.planner.Plan(v, requester, amount)
	if err != nil {
		return nil, err
	}
	lease := &Lease{
		ID:        l.nextID,
		Requester: requester,
		Amount:    amount,
		Take:      append([]float64(nil), plan.Take...),
	}
	l.nextID++
	for i, take := range plan.Take {
		l.avail[i] = max(l.avail[i]-take, 0)
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
	for i, take := range lease.Take {
		l.avail[i] = min(l.avail[i]+take, l.base[i])
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
