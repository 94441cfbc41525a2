// Package store is the GRM's durable state layer: an append-only event
// log (write-ahead log) of state transitions plus periodically compacted
// snapshots. Every transition the GRM commits — registration, report,
// agreement, allocation, release, renewal, expiry, federation borrow and
// repayment, snapshot preload — is appended as one Record; replaying the
// log from an empty server reconstructs the exact leases, borrows, and
// capacities the server held, which is what grm.Server.Recover does
// after a crash or restart.
//
// Two Log implementations are provided: MemLog (in-memory; the
// model-based testing harness's "durable medium" across simulated
// restarts) and FileLog (a directory holding a CRC-framed WAL file and a
// compacted snapshot file; see filelog.go for its truncated-tail recovery
// semantics). Both hold records in the binary encoding of codec.go.
package store

import (
	"bytes"
	"fmt"
	"sync"
)

// Kind enumerates the state transitions the GRM records.
type Kind uint8

const (
	// KindState is a compacted snapshot of the entire dynamic state; it
	// appears only as the first record of a compacted log and replaces
	// every record that preceded it.
	KindState Kind = iota + 1
	// KindSnapshotLoad records a preloaded agreements snapshot (the raw
	// JSON of an agreement.Snapshot).
	KindSnapshotLoad
	// KindRegister records a principal registering (or re-attaching
	// under a declared/previous name) with a starting capacity.
	KindRegister
	// KindReport records an availability report.
	KindReport
	// KindShare records a new sharing agreement (relative or absolute).
	KindShare
	// KindRevoke records an agreement revocation by ticket token.
	KindRevoke
	// KindAlloc records a committed allocation: the lease token, the
	// takes (Sources and Takes, see Record), the expiry, and the parent
	// lease token when part of the allocation was borrowed through the
	// federation.
	KindAlloc
	// KindRelease records a lease being returned by its holder.
	KindRelease
	// KindRenew records a lease expiry extension.
	KindRenew
	// KindExpire records the reaper reclaiming an expired lease.
	KindExpire
	// KindBorrow records capacity borrowed from the parent GRM (the
	// parent's lease token and the amount granted).
	KindBorrow
	// KindRepay records a federation borrow being repaid to the parent.
	KindRepay
)

var kindNames = map[Kind]string{
	KindState:        "state",
	KindSnapshotLoad: "snapshot-load",
	KindRegister:     "register",
	KindReport:       "report",
	KindShare:        "share",
	KindRevoke:       "revoke",
	KindAlloc:        "alloc",
	KindRelease:      "release",
	KindRenew:        "renew",
	KindExpire:       "expire",
	KindBorrow:       "borrow",
	KindRepay:        "repay",
}

// String names the kind for logs and traces.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Valid reports whether k is a known record kind.
func (k Kind) Valid() bool { _, ok := kindNames[k]; return ok }

// Record is one state transition. Seq is assigned by the writer and is
// strictly increasing within a log; replay rejects regressions, and a
// compacted snapshot's Seq marks the point up to which the tail of the
// WAL is already folded in (tail records at or below it are skipped).
type Record struct {
	Seq  uint64 `json:"seq"`
	Kind Kind   `json:"kind"`

	// Register / Report.
	Principal int     `json:"principal,omitempty"`
	Name      string  `json:"name,omitempty"`
	Capacity  float64 `json:"capacity,omitempty"`
	Available float64 `json:"available,omitempty"`

	// Share / Revoke. Ticket is the wire-protocol ticket token (an index,
	// so compaction must preserve share ordering).
	From     int     `json:"from,omitempty"`
	To       int     `json:"to,omitempty"`
	Fraction float64 `json:"fraction,omitempty"`
	Quantity float64 `json:"quantity,omitempty"`
	Ticket   int     `json:"ticket,omitempty"`

	// Alloc / Release / Renew / Expire / Borrow / Repay. An allocation's
	// takes are pairs: Takes[k] was drawn from principal Sources[k], with
	// Sources strictly ascending. nil Sources is the dense form — Takes is
	// indexed by principal id — which JSON-era logs can hold and a caller
	// may still hand to Append (it is stored as its pairs); readers take
	// either through SparseTakes.
	Lease       int       `json:"lease,omitempty"`
	Sources     []int     `json:"src,omitempty"`
	Takes       []float64 `json:"takes,omitempty"`
	Expires     int64     `json:"expires,omitempty"` // unix nanos; 0 = never
	ParentLease int       `json:"parent_lease,omitempty"`
	Amount      float64   `json:"amount,omitempty"`

	// SnapshotLoad payload: the raw agreement.Snapshot JSON.
	Snapshot []byte `json:"snapshot,omitempty"`

	// State payload for KindState records.
	State *State `json:"state,omitempty"`
}

// State is a compacted image of the GRM's dynamic state: everything a
// pristine server needs to resume with identical books. Agreements are
// carried as the ordered share history (ticket tokens are indexes into
// it) plus the originally preloaded snapshot, so replay rebuilds the
// ticket-and-currency system through the same code paths as live
// operation.
type State struct {
	// Declared is the preloaded agreement.Snapshot JSON, nil if none.
	Declared []byte `json:"declared,omitempty"`
	// Names lists every principal in registration order (declared
	// principals first when Declared is set).
	Names []string `json:"names"`
	// Reported and Avail are the per-principal high-water reported
	// capacities and current availability.
	Reported []float64 `json:"reported"`
	Avail    []float64 `json:"avail"`
	// Shares is the full ordered agreement history, revoked ones
	// included (their tokens stay allocated).
	Shares []ShareState `json:"shares,omitempty"`
	// Leases are the outstanding allocations.
	Leases []LeaseState `json:"leases,omitempty"`
	// Borrows are the outstanding federation borrows from the parent GRM,
	// keyed by the parent's lease token — this level's borrow balance in a
	// multi-level GRM tree.
	Borrows []BorrowState `json:"borrows,omitempty"`
	// NextLease is the next lease token to hand out.
	NextLease int `json:"next_lease"`
}

// ShareState is one agreement in the compacted history.
type ShareState struct {
	From     int     `json:"from"`
	To       int     `json:"to"`
	Fraction float64 `json:"fraction,omitempty"`
	Quantity float64 `json:"quantity,omitempty"`
	Revoked  bool    `json:"revoked,omitempty"`
}

// LeaseState is one outstanding lease in the compacted state. Sources
// and Takes read as they do on Record.
type LeaseState struct {
	Token       int       `json:"token"`
	Sources     []int     `json:"src,omitempty"`
	Takes       []float64 `json:"takes"`
	Expires     int64     `json:"expires,omitempty"`
	ParentLease int       `json:"parent_lease,omitempty"`
}

// BorrowState is one outstanding federation borrow in the compacted state.
type BorrowState struct {
	ParentLease int     `json:"parent_lease"`
	Amount      float64 `json:"amount"`
}

// SparseTakes returns an allocation's takes as pairs whichever form they
// were stored in. The pair form is returned as is, not copied; the dense
// form (nil sources) is scanned once for its non-zero entries.
func SparseTakes(sources []int, takes []float64) ([]int, []float64) {
	if sources != nil || len(takes) == 0 {
		return sources, takes
	}
	k := 0
	for _, t := range takes {
		if t != 0 {
			k++
		}
	}
	sources = make([]int, 0, k)
	sparse := make([]float64, 0, k)
	for i, t := range takes {
		if t != 0 {
			sources = append(sources, i)
			sparse = append(sparse, t)
		}
	}
	return sources, sparse
}

// DenseTakes expands pairs into a fresh vector of n entries indexed by
// principal id, which is what readers that compare or print whole vectors
// want. Every source must be below n.
func DenseTakes(sources []int, takes []float64, n int) []float64 {
	out := make([]float64, n)
	for k, p := range sources {
		out[p] = takes[k]
	}
	return out
}

// Log is the interface the GRM records through. Implementations must be
// safe for concurrent use.
type Log interface {
	// Append adds one record to the tail. The record is encoded before
	// Append returns and nothing of it is kept, so the caller may share
	// its slices (an allocation's takes) or reuse it.
	Append(rec *Record) error
	// Replay calls fn for every live record in order: the compacted
	// state record first (if any), then the tail. An fn error aborts
	// the replay and is returned.
	Replay(fn func(*Record) error) error
	// Compact replaces the entire log with the single state record,
	// which must have Kind KindState; its Seq marks the fold point.
	Compact(state *Record) error
	// Sync flushes buffered records to the durable medium.
	Sync() error
	// Close syncs and releases the log's resources.
	Close() error
}

// MemLog is an in-memory Log. It survives a grm.Server restart within
// one process — the model-based testing harness's stand-in for a disk,
// and like a disk it holds encoded frames, not the caller's records: what
// Replay returns has been through the codec a FileLog would put it
// through. The zero value is ready to use.
type MemLog struct {
	mu     sync.Mutex
	frames []byte // the whole log, frame after frame
	n      int    // how many
}

// NewMemLog returns an empty in-memory log.
func NewMemLog() *MemLog { return &MemLog{} }

// Append encodes rec at the tail.
func (m *MemLog) Append(rec *Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	frames, err := appendFrame(m.frames, rec)
	if err != nil {
		return err
	}
	m.frames = frames
	m.n++
	return nil
}

// Replay decodes the log as it stood when Replay was called and calls fn
// over every record in order.
func (m *MemLog) Replay(fn func(*Record) error) error {
	m.mu.Lock()
	frames := m.frames[:len(m.frames):len(m.frames)] // later appends reallocate or write past this view, never into it
	m.mu.Unlock()
	_, err := scanFrames(bytes.NewReader(frames), int64(len(frames)), fn)
	return err
}

// Compact replaces the log's contents with the single state record.
func (m *MemLog) Compact(state *Record) error {
	if state.Kind != KindState {
		return fmt.Errorf("store: Compact with %v record, want state", state.Kind)
	}
	frames, err := appendFrame(nil, state)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.frames, m.n = frames, 1
	return nil
}

// Len reports how many records the log holds (tests and compaction
// policies use it; replay cost is proportional to it).
func (m *MemLog) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}

// Sync is a no-op for the in-memory log.
func (m *MemLog) Sync() error { return nil }

// Close is a no-op for the in-memory log.
func (m *MemLog) Close() error { return nil }
