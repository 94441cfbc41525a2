package agreement

import (
	"fmt"

	"repro/internal/num"
)

// SparseMatrices collapses the currency/ticket graph for one resource type
// into the paper's principal-level model, the view the enforcement engine
// (Section 3 of the paper) consumes: capacities V, the relative agreement
// matrix S (S[i][j] = fraction of principal i's resources shared with
// principal j) and the absolute agreement matrix A (A[i][j] = fixed
// quantity i shares with j), all indexed by PrincipalID. The collapse:
//
//   - relative agreement chains through virtual currencies multiply their
//     fractions (a 50% ticket into a virtual currency that re-issues 30%
//     is an effective 15% principal-to-principal share),
//   - absolute quantities route through virtual currencies scaled by the
//     virtual hops' fractions, keeping their original source principal
//     (whose capacity caps them in the U formula),
//   - granting agreements move capacity from grantor to grantee in V
//     before export,
//   - self-shares that chain back to their own principal are dropped
//     (S_ii = 0 by definition).
//
// Virtual currencies must form a DAG; a backing cycle through virtual
// currencies yields ErrVirtualCycle.
//
// No dense n×n array is allocated: per-cell contributions accumulate in
// ticket order into a SparseBuilder, and the per-currency flow vectors
// skip principals with no flow (adding frac·0 to a non-negative
// accumulator cannot change its bits, so skipping is exact).
func (s *System) SparseMatrices(typ ResourceType) (*SparseMatrices, error) {
	n := len(s.principals)
	m := &SparseMatrices{Type: typ, V: make([]float64, n)}
	sb := NewSparseBuilder(n)
	ab := NewSparseBuilder(n)

	// Capacities, adjusted by granting agreements below.
	for _, r := range s.resources {
		if r.Type != typ || s.tickets[r.Ticket].Revoked {
			continue
		}
		m.V[r.Owner] += r.Capacity
	}

	order, err := s.virtualTopoOrder()
	if err != nil {
		return nil, err
	}

	// Per-virtual-currency flow vectors: relIn[v][p] is the effective
	// fraction of principal p's value flowing into v; absIn[v][p] is the
	// absolute quantity sourced at p flowing into v.
	relIn := map[CurrencyID][]float64{}
	absIn := map[CurrencyID][]float64{}
	for _, v := range order {
		relIn[v] = make([]float64, n)
		absIn[v] = make([]float64, n)
	}

	// Seed and propagate in topological order. Tickets into default
	// currencies are handled in the final pass.
	for _, v := range order {
		for _, tid := range s.currencies[v].backing {
			t := s.tickets[tid]
			if t.Revoked {
				continue
			}
			iss := s.currencies[t.Issuer]
			switch t.Kind {
			case Relative:
				frac := t.Face / iss.FaceValue
				if iss.Kind == Default {
					relIn[v][iss.Owner] += frac
				} else {
					for p := 0; p < n; p++ {
						relIn[v][p] += frac * relIn[iss.ID][p]
						absIn[v][p] += frac * absIn[iss.ID][p]
					}
				}
			case Absolute:
				// Granting into virtual currencies is rejected at
				// ShareAbsolute time, so only sharing tickets appear here.
				if t.Type != typ {
					continue
				}
				absIn[v][iss.Owner] += t.Face
			}
		}
	}

	// Final pass: tickets backing default currencies become S/A entries.
	for _, t := range s.tickets {
		if t.Revoked || t.Issuer < 0 {
			continue
		}
		target := s.currencies[t.Backs]
		if target.Kind != Default {
			continue
		}
		j := int(target.Owner)
		iss := s.currencies[t.Issuer]
		switch t.Kind {
		case Relative:
			frac := t.Face / iss.FaceValue
			if iss.Kind == Default {
				if int(iss.Owner) != j {
					sb.Add(int(iss.Owner), j, frac)
				}
			} else {
				rel, abs := relIn[iss.ID], absIn[iss.ID]
				for p := 0; p < n; p++ {
					if p == j {
						continue
					}
					if !num.IsZero(rel[p]) {
						sb.Add(p, j, frac*rel[p])
					}
					if !num.IsZero(abs[p]) {
						ab.Add(p, j, frac*abs[p])
					}
				}
			}
		case Absolute:
			if t.Type != typ {
				continue
			}
			switch t.Mode {
			case Granting:
				m.V[iss.Owner] -= t.Face
				m.V[j] += t.Face
			default:
				if int(iss.Owner) != j {
					ab.Add(int(iss.Owner), j, t.Face)
				}
			}
		}
	}

	for i := range m.V {
		if m.V[i] < 0 {
			return nil, fmt.Errorf("agreement: principal %q granted away more than it owns (net %g of %q)",
				s.principals[i].Name, m.V[i], typ)
		}
	}
	m.S, m.A = sb.Build(), ab.Build()
	return m, nil
}

// virtualTopoOrder returns the virtual currencies sorted so that every
// currency appears after all virtual currencies that back it. Cycles in
// the virtual subgraph yield ErrVirtualCycle.
func (s *System) virtualTopoOrder() ([]CurrencyID, error) {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make([]int, len(s.currencies))
	var order []CurrencyID
	var visit func(c CurrencyID) error
	visit = func(c CurrencyID) error {
		switch state[c] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("%w involving currency %q", ErrVirtualCycle, s.currencies[c].Name)
		}
		state[c] = visiting
		for _, tid := range s.currencies[c].backing {
			t := s.tickets[tid]
			if t.Revoked || t.Issuer < 0 {
				continue
			}
			if s.currencies[t.Issuer].Kind == Virtual {
				if err := visit(t.Issuer); err != nil {
					return err
				}
			}
		}
		state[c] = done
		order = append(order, c)
		return nil
	}
	for _, cur := range s.currencies {
		if cur.Kind != Virtual {
			continue
		}
		if err := visit(cur.ID); err != nil {
			return nil, err
		}
	}
	return order, nil
}
