// Package grm implements the resource management architecture sketched at
// the end of Section 3 of the paper: a centralized Global Resource Manager
// (GRM) that stores sharing agreements and schedules resources, plus Local
// Resource Managers (LRMs) that register their resources, report
// fluctuating availability, and request allocations.
//
// The wire protocol is version 2 of a binary framing over TCP (stdlib
// only): after a 5-byte hello each LRM connection carries CRC-framed
// request/response envelopes tagged with request ids, any number in
// flight, answered in completion order (transport/wire.go has the frame,
// codec.go the envelope fields). It is the only protocol served or
// dialed: a peer that opens with anything else is hung up on. The GRM
// embeds the ticket-and-currency agreement system (package agreement) for
// expression and the LP allocator (package core) for enforcement, so the
// full stack of the paper runs end to end over a real network boundary.
//
// GRMs can also be stacked into levels ("the architecture also permits
// splitting of the GRMs into multiple levels"): a GRM attaches to a parent
// GRM as an ordinary LRM, reporting its cluster's aggregate free capacity
// and borrowing from sibling clusters when a local request cannot be
// satisfied (see federation.go).
package grm

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/store"
)

// ErrNoPrincipals is returned when an operation needs a planner but no
// principal has registered yet. Unlike transient planner-build failures
// (an infeasible agreement graph, an enumeration budget refusal), this
// condition clears itself once the first LRM registers, so clients retry
// instead of surfacing an error. It crosses the wire as CodeNoPrincipals
// and is rehydrated by the client, so errors.Is works on both sides.
var ErrNoPrincipals = errors.New("grm: no principals registered")

// Error codes crossing the wire in Response.Code. Append-only: codes are
// part of the protocol.
const (
	// CodeGeneric marks an error with no machine-readable classification.
	CodeGeneric uint64 = iota
	// CodeNoPrincipals maps ErrNoPrincipals.
	CodeNoPrincipals
)

// Request is the envelope an LRM sends to the GRM; exactly one field is
// non-nil.
type Request struct {
	Register *RegisterRequest
	Report   *ReportRequest
	Share    *ShareRequest
	Revoke   *RevokeRequest
	Alloc    *AllocRequest
	Release  *ReleaseRequest
	Renew    *RenewRequest
	Caps     *CapsRequest
	Peers    *PeersRequest
	Ping     *PingRequest
}

// Response is the GRM's reply; Err is empty on success and exactly one
// payload field is non-nil for the matching request kind.
type Response struct {
	Err string
	// Code classifies Err for programmatic handling (CodeGeneric when the
	// error has no sentinel). Meaningful only when Err is non-empty.
	Code     uint64
	Register *RegisterReply
	Report   *ReportReply
	Share    *ShareReply
	Revoke   *ReportReply // revoke has no payload beyond acknowledgement
	Alloc    *AllocReply
	Release  *ReportReply // acknowledgement only
	Renew    *RenewReply
	Caps     *CapsReply
	Peers    *PeersReply
	Ping     *PingReply
}

// RegisterRequest announces an LRM and its resource capacity to the GRM.
type RegisterRequest struct {
	Name     string
	Capacity float64
}

// RegisterReply returns the principal index assigned to the LRM.
type RegisterReply struct {
	Principal int
}

// ReportRequest updates the GRM's view of the LRM's free capacity.
type ReportRequest struct {
	Principal int
	Available float64
}

// ReportReply acknowledges a report.
type ReportReply struct{}

// ShareRequest expresses a sharing agreement from the calling principal to
// another: relative (Fraction of the caller's fluctuating capacity) or
// absolute (a fixed Quantity) — the two ticket kinds of Section 2.
type ShareRequest struct {
	From     int
	To       int
	Fraction float64 // relative share in (0, 1]; 0 if absolute
	Quantity float64 // absolute quantity; 0 if relative
}

// ShareReply returns a token that can later revoke the agreement.
type ShareReply struct {
	Ticket int
}

// RevokeRequest cancels a previously created agreement.
type RevokeRequest struct {
	Ticket int
}

// AllocRequest asks the GRM to allocate Amount units for the principal,
// honoring all agreements.
type AllocRequest struct {
	Principal int
	Amount    float64
}

// AllocReply carries the GRM's allocation decision: how much to take from
// whom, the realized perturbation metric θ, and a lease token to pass to
// Release when the resources are done. TTL, when non-zero, is the lease's
// time to live: the GRM reclaims the resources after TTL unless the
// holder calls Renew or Release first.
//
// The takes are pairs: Takes[k] > 0 is drawn from principal Sources[k],
// and Sources is strictly ascending, so a reply costs what the allocation
// touches, not what the GRM serves. nil Sources is the form older peers
// and recorded bundles hold — Takes indexed by principal id, zeros
// included; Each and Dense read either, and the codecs send pairs.
//
// The server builds the two slices once, when the allocation commits,
// and the lease, this reply, the tap event and the journal record all
// point at them. Nobody may write to them after that: a holder that
// wants to change a take copies first.
type AllocReply struct {
	Sources []int
	Takes   []float64
	Theta   float64
	Lease   int
	TTL     time.Duration
}

// Each calls fn for every principal the allocation takes from, in
// ascending principal order.
func (r *AllocReply) Each(fn func(principal int, take float64)) {
	sources, takes := store.SparseTakes(r.Sources, r.Takes)
	for k, p := range sources {
		fn(p, takes[k])
	}
}

// Dense returns the takes as a fresh vector indexed by principal id, n
// entries long, or longer if a source lies beyond n.
func (r *AllocReply) Dense(n int) []float64 {
	sources, takes := store.SparseTakes(r.Sources, r.Takes)
	if k := len(sources); k > 0 && sources[k-1] >= n {
		n = sources[k-1] + 1
	}
	return store.DenseTakes(sources, takes, n)
}

// ReleaseRequest returns a finished allocation's resources to the pool.
type ReleaseRequest struct {
	Lease int
}

// RenewRequest extends a live lease's TTL by the server's lease TTL. A
// no-op acknowledgement when the server has no lease expiry configured.
type RenewRequest struct {
	Lease int
}

// RenewReply reports the renewed lease's remaining time to live (zero when
// leases do not expire).
type RenewReply struct {
	TTL time.Duration
}

// PingRequest is a liveness probe; it touches no state and may be used by
// clients to test a connection or measure round-trip time.
type PingRequest struct{}

// PingReply acknowledges a ping.
type PingReply struct{}

// CapsRequest asks for every principal's capacity C_i (own plus
// transitively available resources) under the current availability.
type CapsRequest struct{}

// CapsReply lists capacities indexed by principal.
type CapsReply struct {
	Available  []float64
	Capacities []float64
}

// PeersRequest asks for the registered principals.
type PeersRequest struct{}

// PeersReply lists principal names indexed by id.
type PeersReply struct {
	Names []string
}

// errorf builds a Response carrying only an error.
func errorf(format string, args ...any) *Response {
	return &Response{Err: fmt.Sprintf(format, args...)}
}

// errorResponse is errorf for call sites holding the causing error: known
// sentinels are mapped to their wire codes so clients can distinguish
// them from generic failures.
func errorResponse(err error, format string, args ...any) *Response {
	r := errorf(format, args...)
	if errors.Is(err, ErrNoPrincipals) {
		r.Code = CodeNoPrincipals
	}
	return r
}

// wireError rehydrates a Response's error on the client side: coded
// errors wrap their sentinel so errors.Is sees through the network
// boundary. Returns nil when the response carries no error.
func wireError(resp *Response) error {
	if resp.Err == "" {
		return nil
	}
	if resp.Code == CodeNoPrincipals {
		return fmt.Errorf("%w (remote: %s)", ErrNoPrincipals, resp.Err)
	}
	return errors.New(resp.Err)
}
