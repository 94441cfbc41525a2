package agreement

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/num"
)

// ErrSingularValuation is returned when currency values have no unique
// solution: a backing cycle re-injects 100% (or more) of a currency's
// value into itself, so the fixed point diverges.
var ErrSingularValuation = errors.New("agreement: currency valuation has no unique solution (non-contractive backing cycle)")

// Values computes the value of every currency for one resource type by
// solving the linear fixed point
//
//	v[c] = base[c] + Σ (face/faceValue(issuer)) · v[issuer]
//
// directly with Gaussian elimination (partial pivoting). Mutual agreements
// make the backing graph cyclic, so a single propagation pass would not
// suffice. The result is indexed by CurrencyID.
func (s *System) Values(typ ResourceType) ([]float64, error) {
	n := len(s.currencies)
	base, shares := s.valuationSystem(typ)

	// Build (I - M) v = base with M[to][from] = share.
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n+1)
		a[i][i] = 1
		a[i][n] = base[i]
	}
	for _, sh := range shares {
		a[sh.to][sh.from] -= sh.frac
	}

	// Gaussian elimination with partial pivoting.
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-12 {
			return nil, fmt.Errorf("%w (currency %q)", ErrSingularValuation, s.currencies[col].Name)
		}
		a[col], a[piv] = a[piv], a[col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if num.IsZero(f) {
				continue
			}
			for k := col; k <= n; k++ {
				a[r][k] -= f * a[col][k]
			}
		}
	}
	v := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := a[i][n]
		for k := i + 1; k < n; k++ {
			sum -= a[i][k] * v[k]
		}
		v[i] = sum / a[i][i]
	}
	return v, nil
}

type share struct {
	from, to int
	frac     float64
}

// valuationSystem collects, for one resource type, the absolute base value
// of each currency and the relative backing edges between currencies.
// Granting absolute agreements move base value from issuer to grantee.
func (s *System) valuationSystem(typ ResourceType) (base []float64, shares []share) {
	base = make([]float64, len(s.currencies))
	for _, t := range s.tickets {
		if t.Revoked {
			continue
		}
		switch t.Kind {
		case Absolute:
			if t.Type != typ {
				continue
			}
			base[t.Backs] += t.Face
			if t.Mode == Granting && t.Issuer >= 0 {
				base[t.Issuer] -= t.Face
			}
		case Relative:
			frac := t.Face / s.currencies[t.Issuer].FaceValue
			shares = append(shares, share{from: int(t.Issuer), to: int(t.Backs), frac: frac})
		}
	}
	return base, shares
}

// TicketValue returns the real value of a ticket for a resource type:
// absolute tickets are worth their face value (for their own type),
// relative tickets are worth value(issuer) * face / faceValue(issuer).
// The currency values must come from Values.
func (s *System) TicketValue(t TicketID, typ ResourceType, values []float64) float64 {
	s.checkTicket(t)
	tk := s.tickets[t]
	if tk.Revoked {
		return 0
	}
	switch tk.Kind {
	case Absolute:
		if tk.Type != typ {
			return 0
		}
		return tk.Face
	default:
		iss := s.currencies[tk.Issuer]
		return values[tk.Issuer] * tk.Face / iss.FaceValue
	}
}
