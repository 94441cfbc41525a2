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

// Base is what a served GRM keeps of a declared agreement graph once its
// System is dropped: the principal-level S and A of the General resource
// and each declared principal's default-currency face value. Every later
// agreement is a Share layered on top of it (Fold, Cell, AddShare). A nil
// Base declares nothing: every principal then has the face value
// AddPrincipal gives a new currency.
//
// The layering is bit-identical to SparseMatrices over a System that holds
// the declared graph and then one ticket per Share, in order. That build
// sums each cell left to right in ticket-creation order; a snapshot's
// tickets all precede the tickets made after it, so a cell is its declared
// sum — the Base's entry — followed by the later shares' terms in their
// order. A relative Share of Fraction is the ticket Fraction·face, whose
// term is (Fraction·face)/face; an absolute one is its Quantity. Shares
// never touch a virtual currency or a granting agreement, so nothing they
// add is routed, and they leave V as declared.
type Base struct {
	S, A *SparseMatrix
	Face []float64
}

// Share is one agreement between two distinct principals' default
// currencies made after a Base, the only kind a GRM's wire makes: relative,
// of Fraction of From's face value, when Fraction is positive, else
// absolute, of Quantity of the General resource in Sharing mode.
type Share struct {
	From, To           int
	Fraction, Quantity float64
}

// face returns principal p's default-currency face value.
func (b *Base) face(p int) float64 {
	if b != nil && p < len(b.Face) {
		return b.Face[p]
	}
	return defaultFaceValue
}

// Cell returns the declared S and A entries at (from, to): 0 for a
// principal past the declared ones, or with no Base.
func (b *Base) Cell(from, to int) (rel, abs float64) {
	if b == nil || from >= len(b.Face) || to >= len(b.Face) {
		return 0, 0
	}
	return b.S.At(from, to), b.A.At(from, to)
}

// AddShare adds sh's term to rel and abs, the S and A cells of its pair:
// the addition SparseMatrices makes for sh's ticket.
func (b *Base) AddShare(rel, abs float64, sh Share) (float64, float64) {
	if sh.Fraction > 0 {
		face := b.face(sh.From)
		return rel + (sh.Fraction*face)/face, abs
	}
	return rel, abs + sh.Quantity
}

// Fold accumulates S and A over a Base and the shares added to it.
type Fold struct {
	b      *Base
	sb, ab *SparseBuilder
}

// Fold starts S and A over n principals, n at least the declared ones,
// from b's entries.
func (b *Base) Fold(n int) *Fold {
	f := &Fold{b: b, sb: NewSparseBuilder(n), ab: NewSparseBuilder(n)}
	if b != nil {
		f.sb.addAll(b.S)
		f.ab.addAll(b.A)
	}
	return f
}

// addAll adds every stored entry of m, a matrix of at most b's dimension.
func (b *SparseBuilder) addAll(m *SparseMatrix) {
	for i := 0; i < m.N(); i++ {
		cols, vals := m.Row(i)
		for k, c := range cols {
			b.Add(i, int(c), vals[k])
		}
	}
}

// Add adds sh's term to its cell, after every term added before it.
func (f *Fold) Add(sh Share) {
	if sh.Fraction > 0 {
		face := f.b.face(sh.From)
		f.sb.Add(sh.From, sh.To, (sh.Fraction*face)/face)
	} else {
		f.ab.Add(sh.From, sh.To, sh.Quantity)
	}
}

// Build returns the folded S and A.
func (f *Fold) Build() (S, A *SparseMatrix) { return f.sb.Build(), f.ab.Build() }
