package agreement

import (
	"errors"
	"fmt"
)

// PrincipalID identifies a principal within a System.
type PrincipalID int

// CurrencyID identifies a currency within a System.
type CurrencyID int

// TicketID identifies a ticket within a System.
type TicketID int

// ResourceID identifies a resource within a System.
type ResourceID int

// ResourceType names a kind of resource ("general", "cpu", "disk", ...).
// The case study collapses everything into a single "general" resource,
// matching the paper's simulation model.
type ResourceType string

// General is the single collapsed resource type used by the case study.
const General ResourceType = "general"

// TicketKind distinguishes absolute from relative tickets.
type TicketKind int

const (
	// Absolute tickets carry a fixed quantity of one resource type.
	Absolute TicketKind = iota
	// Relative tickets carry a share of the issuing currency's value.
	Relative
)

// String returns "absolute" or "relative".
func (k TicketKind) String() string {
	if k == Relative {
		return "relative"
	}
	return "absolute"
}

// Mode distinguishes sharing agreements (both sides can use the resource)
// from granting agreements (the grantor gives it up until revocation).
type Mode int

const (
	// Sharing leaves the grantor able to use the resource too.
	Sharing Mode = iota
	// Granting transfers the capacity to the grantee until revoked.
	Granting
)

// String returns "sharing" or "granting".
func (m Mode) String() string {
	if m == Granting {
		return "granting"
	}
	return "sharing"
}

// CurrencyKind distinguishes per-principal default currencies from virtual
// currencies created to isolate agreement subsets.
type CurrencyKind int

const (
	// Default currencies represent a principal's own resources.
	Default CurrencyKind = iota
	// Virtual currencies are pass-through currencies funded by tickets
	// from other currencies of the same principal.
	Virtual
)

// Principal is a participating entity (an organization, an ISP, a user).
type Principal struct {
	ID       PrincipalID
	Name     string
	Currency CurrencyID // the principal's default currency
}

// Resource is a concrete capacity owned by one principal.
type Resource struct {
	ID       ResourceID
	Name     string
	Type     ResourceType
	Owner    PrincipalID
	Capacity float64
	Ticket   TicketID // the absolute ticket funding the owner's currency
}

// Ticket encapsulates an access right plus a capacity constraint.
type Ticket struct {
	ID   TicketID
	Kind TicketKind
	Mode Mode
	// Face is the quantity for absolute tickets, or the number of issuer
	// units for relative tickets.
	Face float64
	// Type is the resource type an absolute ticket denominates. Relative
	// tickets propagate all types and leave this empty.
	Type ResourceType
	// Issuer is the currency that issued the ticket; -1 for the base
	// tickets that represent raw resources.
	Issuer CurrencyID
	// Backs is the currency this ticket funds.
	Backs   CurrencyID
	Revoked bool
}

// Currency denominates tickets. Its value is the sum of its backing
// tickets' real values (per resource type).
type Currency struct {
	ID   CurrencyID
	Name string
	Kind CurrencyKind
	// Owner is the principal the currency belongs to.
	Owner PrincipalID
	// FaceValue is the number of units in the currency: the denominator
	// for shares of relative tickets it issues. Inflating the currency
	// (raising FaceValue) dilutes every outstanding relative ticket.
	FaceValue float64
	backing   []TicketID
	issued    []TicketID
}

// System is the registry of principals, resources, currencies and tickets,
// plus the operations that express agreements. It is not safe for
// concurrent mutation.
type System struct {
	principals []Principal
	resources  []Resource
	currencies []Currency
	tickets    []Ticket
	types      map[ResourceType]bool
	virtuals   int // virtual currencies created so far
}

// ErrOverdraft is wrapped by CheckConservative when a currency has issued
// more relative units than its face value (the paper's Σ S_ik <= 1
// restriction).
var ErrOverdraft = errors.New("agreement: currency overdrawn")

// ErrRelativeGrant is returned when a relative granting agreement is
// requested; the paper defines granting semantics only for fixed
// quantities, and so does this package.
var ErrRelativeGrant = errors.New("agreement: granting agreements must be absolute")

// ErrVirtualCycle is returned when virtual currencies form a backing cycle
// that cannot be contracted to principal-level shares.
var ErrVirtualCycle = errors.New("agreement: cycle through virtual currencies")

// NewSystem returns an empty agreement system.
func NewSystem() *System {
	return &System{types: map[ResourceType]bool{}}
}

// defaultFaceValue is the face value assigned to new currencies, mirroring
// the paper's examples (currency A has face value 1000).
const defaultFaceValue = 1000

// AddPrincipal registers a principal and creates its default currency
// (face value 1000; adjust with Inflate). The principal's name must be
// non-empty.
func (s *System) AddPrincipal(name string) PrincipalID {
	if name == "" {
		panic("agreement: AddPrincipal: empty name")
	}
	pid := PrincipalID(len(s.principals))
	cid := CurrencyID(len(s.currencies))
	s.currencies = append(s.currencies, Currency{
		ID: cid, Name: name, Kind: Default, Owner: pid, FaceValue: defaultFaceValue,
	})
	s.principals = append(s.principals, Principal{ID: pid, Name: name, Currency: cid})
	return pid
}

// NumPrincipals returns the number of registered principals.
func (s *System) NumPrincipals() int { return len(s.principals) }

// Principal returns the principal record for id.
func (s *System) Principal(id PrincipalID) Principal {
	s.checkPrincipal(id)
	return s.principals[id]
}

// CurrencyOf returns the default currency of a principal.
func (s *System) CurrencyOf(id PrincipalID) CurrencyID {
	s.checkPrincipal(id)
	return s.principals[id].Currency
}

// Currency returns the currency record for id.
func (s *System) Currency(id CurrencyID) Currency {
	s.checkCurrency(id)
	return s.currencies[id]
}

// Ticket returns the ticket record for id.
func (s *System) Ticket(id TicketID) Ticket {
	s.checkTicket(id)
	return s.tickets[id]
}

// Resource returns the resource record for id.
func (s *System) Resource(id ResourceID) Resource {
	s.checkResource(id)
	return s.resources[id]
}

// NumResources returns the number of registered resources.
func (s *System) NumResources() int { return len(s.resources) }

// ResourceTypes returns the set of resource types registered so far, in
// unspecified order.
func (s *System) ResourceTypes() []ResourceType {
	out := make([]ResourceType, 0, len(s.types))
	for t := range s.types {
		out = append(out, t)
	}
	return out
}

// AddResource registers capacity of the given type owned by a principal.
// The capacity is expressed as an absolute ticket funding the owner's
// default currency, exactly as in Figure 1 of the paper. Capacity must be
// non-negative.
func (s *System) AddResource(name string, typ ResourceType, owner PrincipalID, capacity float64) (ResourceID, error) {
	s.checkPrincipal(owner)
	if capacity < 0 {
		return 0, fmt.Errorf("agreement: AddResource(%q): negative capacity %g", name, capacity)
	}
	if typ == "" {
		return 0, fmt.Errorf("agreement: AddResource(%q): empty resource type", name)
	}
	tid := TicketID(len(s.tickets))
	cur := s.principals[owner].Currency
	s.tickets = append(s.tickets, Ticket{
		ID: tid, Kind: Absolute, Mode: Sharing, Face: capacity, Type: typ,
		Issuer: -1, Backs: cur,
	})
	s.currencies[cur].backing = append(s.currencies[cur].backing, tid)
	rid := ResourceID(len(s.resources))
	s.resources = append(s.resources, Resource{
		ID: rid, Name: name, Type: typ, Owner: owner, Capacity: capacity, Ticket: tid,
	})
	s.types[typ] = true
	return rid, nil
}

// ShareRelative expresses a relative sharing agreement: the issuing
// currency funds the receiving currency with `units` of its face value
// (e.g. 500 units of a 1000-unit currency is a 50% share). Units must be
// positive and the two currencies distinct.
func (s *System) ShareRelative(from, to CurrencyID, units float64) (TicketID, error) {
	s.checkCurrency(from)
	s.checkCurrency(to)
	if from == to {
		return 0, fmt.Errorf("agreement: ShareRelative: currency %q cannot back itself", s.currencies[from].Name)
	}
	if units <= 0 {
		return 0, fmt.Errorf("agreement: ShareRelative: units must be positive, got %g", units)
	}
	tid := TicketID(len(s.tickets))
	s.tickets = append(s.tickets, Ticket{
		ID: tid, Kind: Relative, Mode: Sharing, Face: units, Issuer: from, Backs: to,
	})
	s.currencies[from].issued = append(s.currencies[from].issued, tid)
	s.currencies[to].backing = append(s.currencies[to].backing, tid)
	return tid, nil
}

// ShareAbsolute expresses an absolute agreement of a fixed quantity of one
// resource type, in the given mode (Sharing or Granting).
func (s *System) ShareAbsolute(from, to CurrencyID, typ ResourceType, qty float64, mode Mode) (TicketID, error) {
	s.checkCurrency(from)
	s.checkCurrency(to)
	if from == to {
		return 0, fmt.Errorf("agreement: ShareAbsolute: currency %q cannot back itself", s.currencies[from].Name)
	}
	if qty <= 0 {
		return 0, fmt.Errorf("agreement: ShareAbsolute: quantity must be positive, got %g", qty)
	}
	if typ == "" {
		return 0, fmt.Errorf("agreement: ShareAbsolute: empty resource type")
	}
	if mode == Granting && (s.currencies[from].Kind == Virtual || s.currencies[to].Kind == Virtual) {
		return 0, fmt.Errorf("agreement: ShareAbsolute: granting agreements must connect default currencies (a grant re-issued fractionally has no defined semantics)")
	}
	tid := TicketID(len(s.tickets))
	s.tickets = append(s.tickets, Ticket{
		ID: tid, Kind: Absolute, Mode: mode, Face: qty, Type: typ, Issuer: from, Backs: to,
	})
	s.currencies[from].issued = append(s.currencies[from].issued, tid)
	s.currencies[to].backing = append(s.currencies[to].backing, tid)
	s.types[typ] = true
	return tid, nil
}

// Grant is shorthand for an absolute granting agreement.
func (s *System) Grant(from, to CurrencyID, typ ResourceType, qty float64) (TicketID, error) {
	return s.ShareAbsolute(from, to, typ, qty, Granting)
}

// NewVirtualCurrency creates a virtual currency owned by a principal and
// funds it with `units` of the source currency (which must belong to the
// same principal). The returned currency can then issue its own tickets,
// isolating that subset of agreements from the principal's other dealings.
func (s *System) NewVirtualCurrency(name string, source CurrencyID, units, faceValue float64) (CurrencyID, error) {
	s.checkCurrency(source)
	if faceValue <= 0 {
		return 0, fmt.Errorf("agreement: NewVirtualCurrency(%q): face value must be positive", name)
	}
	owner := s.currencies[source].Owner
	cid := CurrencyID(len(s.currencies))
	s.currencies = append(s.currencies, Currency{
		ID: cid, Name: name, Kind: Virtual, Owner: owner, FaceValue: faceValue,
	})
	if _, err := s.ShareRelative(source, cid, units); err != nil {
		// Roll the currency back; the share failed validation.
		s.currencies = s.currencies[:cid]
		return 0, err
	}
	s.virtuals++
	return cid, nil
}

// Inflate sets a currency's face value. Raising it dilutes every
// outstanding relative ticket the currency has issued; lowering it
// (deflation) concentrates them. The new face value must be positive.
func (s *System) Inflate(c CurrencyID, newFaceValue float64) error {
	s.checkCurrency(c)
	if newFaceValue <= 0 {
		return fmt.Errorf("agreement: Inflate(%q): face value must be positive, got %g",
			s.currencies[c].Name, newFaceValue)
	}
	s.currencies[c].FaceValue = newFaceValue
	return nil
}

// Revoke cancels a ticket: the agreement it represents (or, for a base
// ticket, the resource funding) stops contributing to any valuation.
// Revoking an already-revoked ticket is a no-op.
func (s *System) Revoke(t TicketID) {
	s.checkTicket(t)
	s.tickets[t].Revoked = true
}

// DirectAgreement returns the entries S[from][to] and A[from][to] that
// SparseMatrices(typ) would hold, computed from the tickets alone: the
// sums, in ticket-creation order, of the live tickets `from`'s default
// currency issued straight into `to`'s — Face/FaceValue for relative
// tickets, Face for absolute sharing tickets of typ. That is the same
// per-cell accumulation sequence the matrix build performs, so the
// values are bit-identical to the built cells; a caller holding a planner
// can re-derive one cell after a revocation instead of rebuilding every
// matrix. ok is false when the system holds a virtual currency: a cell
// can then also collect contributions routed through it, which only the
// full build accounts for.
func (s *System) DirectAgreement(from, to PrincipalID, typ ResourceType) (rel, abs float64, ok bool) {
	s.checkPrincipal(from)
	s.checkPrincipal(to)
	if s.virtuals > 0 {
		return 0, 0, false
	}
	if from == to {
		return 0, 0, true // S_ii = A_ii = 0 by definition
	}
	iss := s.currencies[s.principals[from].Currency]
	target := s.principals[to].Currency
	for _, tid := range iss.issued {
		t := s.tickets[tid]
		if t.Revoked || t.Backs != target {
			continue
		}
		switch {
		case t.Kind == Relative:
			rel += t.Face / iss.FaceValue
		case t.Type == typ && t.Mode == Sharing:
			abs += t.Face
		}
	}
	return rel, abs, true
}

// SetCapacity updates the capacity of a resource (LRMs report fluctuating
// availability this way). The backing ticket's face value follows.
func (s *System) SetCapacity(r ResourceID, capacity float64) error {
	s.checkResource(r)
	if capacity < 0 {
		return fmt.Errorf("agreement: SetCapacity(%q): negative capacity %g", s.resources[r].Name, capacity)
	}
	s.resources[r].Capacity = capacity
	s.tickets[s.resources[r].Ticket].Face = capacity
	return nil
}

// IssuedShare returns the fraction of the currency's face value currently
// issued as live relative tickets.
func (s *System) IssuedShare(c CurrencyID) float64 {
	s.checkCurrency(c)
	cur := s.currencies[c]
	var units float64
	for _, tid := range cur.issued {
		t := s.tickets[tid]
		if t.Revoked || t.Kind != Relative {
			continue
		}
		units += t.Face
	}
	return units / cur.FaceValue
}

// CheckConservative verifies the paper's basic-model restriction that no
// currency shares more than it has: the live relative units issued by each
// currency must not exceed its face value. It returns a joined error
// wrapping ErrOverdraft for every violation, or nil.
func (s *System) CheckConservative() error {
	var errs []error
	for _, cur := range s.currencies {
		if share := s.IssuedShare(cur.ID); share > 1+1e-12 {
			errs = append(errs, fmt.Errorf("%w: %q issued %.4g of its face value",
				ErrOverdraft, cur.Name, share))
		}
	}
	return errors.Join(errs...)
}

func (s *System) checkPrincipal(id PrincipalID) {
	if id < 0 || int(id) >= len(s.principals) {
		panic(fmt.Sprintf("agreement: unknown principal %d", id))
	}
}

func (s *System) checkCurrency(id CurrencyID) {
	if id < 0 || int(id) >= len(s.currencies) {
		panic(fmt.Sprintf("agreement: unknown currency %d", id))
	}
}

func (s *System) checkTicket(id TicketID) {
	if id < 0 || int(id) >= len(s.tickets) {
		panic(fmt.Sprintf("agreement: unknown ticket %d", id))
	}
}

func (s *System) checkResource(id ResourceID) {
	if id < 0 || int(id) >= len(s.resources) {
		panic(fmt.Sprintf("agreement: unknown resource %d", id))
	}
}
