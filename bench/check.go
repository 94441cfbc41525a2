package main

import (
	"fmt"

	"repro/internal/grm"
	"repro/internal/num"
)

// The correctness gate. Every reply is checked as it arrives, the books
// are checked once the last lease is back, and a restart must reproduce
// the status it interrupted. Any failure is fatal: the run prints no
// metrics.

// checkAlloc verifies one allocation reply: the takes sum to the amount
// requested and the perturbation θ is not negative, within the solver
// tolerance of internal/num.
func checkAlloc(reply *grm.AllocReply, amount float64) error {
	var sum float64
	for i, t := range reply.Takes {
		if t < 0 && !num.EqSolve(t, 0) {
			return fmt.Errorf("lease %d: take[%d] = %g is negative", reply.Lease, i, t)
		}
		sum += t
	}
	if !num.EqSolve(sum, amount) {
		return fmt.Errorf("lease %d: takes sum to %g, requested %g", reply.Lease, sum, amount)
	}
	if reply.Theta < 0 && !num.EqSolve(reply.Theta, 0) {
		return fmt.Errorf("lease %d: theta = %g is negative", reply.Lease, reply.Theta)
	}
	return nil
}

// checkBooks verifies a quiescent node: no lease outstanding, every
// principal's availability back at what it last reported, and nothing
// still owed to the parent.
func checkBooks(who string, st *grm.Status) error {
	if st.Leases != 0 {
		return fmt.Errorf("%s: %d leases outstanding after the last release", who, st.Leases)
	}
	for _, p := range st.Principals {
		if !num.EqSolve(p.Available, p.Reported) {
			return fmt.Errorf("%s: principal %d (%s) has %g available, reported %g", who, p.Principal, p.Name, p.Available, p.Reported)
		}
	}
	if len(st.Federation.Borrows) != 0 || !num.EqSolve(st.Federation.TotalBorrowed, 0) {
		return fmt.Errorf("%s: %g still borrowed from the parent in %d leases", who, st.Federation.TotalBorrowed, len(st.Federation.Borrows))
	}
	return nil
}

// checkRecovered verifies that a restarted node reports the books the
// closed one held. Pipeline counters and the parent link restart from
// zero and are not compared.
func checkRecovered(before, after *grm.Status) error {
	if before.Leases != after.Leases || before.Agreements != after.Agreements {
		return fmt.Errorf("recovered %d leases and %d agreements, had %d and %d", after.Leases, after.Agreements, before.Leases, before.Agreements)
	}
	if len(before.Principals) != len(after.Principals) {
		return fmt.Errorf("recovered %d principals, had %d", len(after.Principals), len(before.Principals))
	}
	for i, b := range before.Principals {
		a := after.Principals[i]
		if a.Principal != b.Principal || a.Name != b.Name ||
			!num.EqSolve(a.Available, b.Available) || !num.EqSolve(a.Reported, b.Reported) || !num.EqSolve(a.Capacity, b.Capacity) {
			return fmt.Errorf("recovered principal %+v, had %+v", a, b)
		}
	}
	if !num.EqSolve(before.Federation.TotalBorrowed, after.Federation.TotalBorrowed) {
		return fmt.Errorf("recovered borrow balance %g, had %g", after.Federation.TotalBorrowed, before.Federation.TotalBorrowed)
	}
	return nil
}
