package store

import (
	"encoding/json"
	"fmt"

	"repro/internal/wirefmt"
)

// Record encoding. A log is a sequence of wirefmt CRC frames
//
//	[4B LE payload length][4B LE CRC-32 (IEEE) of payload][payload]
//
// and a payload is one Record in wirefmt's field primitives:
//
//	[kind byte 1–12][uvarint seq][the kind's fields, in this order]
//
//	state          declared bytes · names n×string · reported floats ·
//	               avail floats · shares n×(from to fraction quantity
//	               revoked) · leases n×(token takes expires parent-lease)
//	               · borrows n×(parent-lease amount) · next-lease
//	snapshot-load  snapshot bytes
//	register       principal · name · capacity
//	report         principal · available
//	share          from · to · fraction · quantity · ticket
//	revoke         ticket
//	alloc          principal · amount · lease · takes · expires ·
//	               parent-lease
//	release        lease · parent-lease
//	renew          lease · expires
//	expire         lease · parent-lease
//	borrow         principal · amount · parent-lease
//	repay          parent-lease
//
// Ids, tokens and expiries are zigzag ints, amounts 8-byte floats, n× a
// uvarint count, revoked one 0/1 byte, and takes the sparse run form of
// AppendSparseFloat64s over (Sources, Takes) — pairs only: a record handed
// over in the dense form (nil Sources) is written as its non-zero pairs
// and read back that way. A field outside its kind's row is not stored.
// The decoder is strict (no padded uvarint, no split run, no trailing
// byte), so a payload it accepts re-encodes to its own bytes.
//
// Logs written before this encoding hold the Record as JSON. A JSON
// payload starts with '{' (0x7B), which is no kind byte, so the decoder
// tells the two apart per frame and a log may mix them: an old log is
// read as it is, appended to in binary, and rewritten by its next
// Compact. The JSON branch of decodeRecord can be deleted once no
// deployment holds a wal.log or snapshot.wal last compacted by a build
// older than this encoding.

// legacyJSONLead is the first payload byte of a JSON-era record.
const legacyJSONLead = '{'

// appendFrame appends rec to dst as one frame.
func appendFrame(dst []byte, rec *Record) ([]byte, error) {
	start := len(dst)
	buf, err := appendRecord(wirefmt.BeginFrame(dst), rec)
	if err != nil {
		return dst, err
	}
	if err := wirefmt.EndFrame(buf, start); err != nil {
		return dst, fmt.Errorf("store: encode %v record: %w", rec.Kind, err)
	}
	return buf, nil
}

func appendInt(dst []byte, v int) []byte { return wirefmt.AppendInt(dst, int64(v)) }
func readInt(d *wirefmt.Dec) int         { return int(d.Int()) }

// appendRecord appends rec's payload to dst.
func appendRecord(dst []byte, rec *Record) ([]byte, error) {
	dst = append(dst, byte(rec.Kind))
	dst = wirefmt.AppendUvarint(dst, rec.Seq)
	switch rec.Kind {
	case KindState:
		if rec.State == nil {
			return nil, fmt.Errorf("store: encode state record without payload")
		}
		return appendState(dst, rec.State)
	case KindSnapshotLoad:
		dst = wirefmt.AppendBytes(dst, rec.Snapshot)
	case KindRegister:
		dst = appendInt(dst, rec.Principal)
		dst = wirefmt.AppendString(dst, rec.Name)
		dst = wirefmt.AppendFloat64(dst, rec.Capacity)
	case KindReport:
		dst = appendInt(dst, rec.Principal)
		dst = wirefmt.AppendFloat64(dst, rec.Available)
	case KindShare:
		dst = appendInt(dst, rec.From)
		dst = appendInt(dst, rec.To)
		dst = wirefmt.AppendFloat64(dst, rec.Fraction)
		dst = wirefmt.AppendFloat64(dst, rec.Quantity)
		dst = appendInt(dst, rec.Ticket)
	case KindRevoke:
		dst = appendInt(dst, rec.Ticket)
	case KindAlloc:
		dst = appendInt(dst, rec.Principal)
		dst = wirefmt.AppendFloat64(dst, rec.Amount)
		dst = appendInt(dst, rec.Lease)
		var err error
		if dst, err = appendTakes(dst, rec.Sources, rec.Takes); err != nil {
			return nil, err
		}
		dst = wirefmt.AppendInt(dst, rec.Expires)
		dst = appendInt(dst, rec.ParentLease)
	case KindRelease, KindExpire:
		dst = appendInt(dst, rec.Lease)
		dst = appendInt(dst, rec.ParentLease)
	case KindRenew:
		dst = appendInt(dst, rec.Lease)
		dst = wirefmt.AppendInt(dst, rec.Expires)
	case KindBorrow:
		dst = appendInt(dst, rec.Principal)
		dst = wirefmt.AppendFloat64(dst, rec.Amount)
		dst = appendInt(dst, rec.ParentLease)
	case KindRepay:
		dst = appendInt(dst, rec.ParentLease)
	default:
		return nil, fmt.Errorf("store: encode record with invalid kind %d", uint8(rec.Kind))
	}
	return dst, nil
}

// appendTakes appends an allocation's takes as sparse runs. The pairs are
// checked first: a record the decoder would refuse takes every later
// record of the log with it at the next recovery.
func appendTakes(dst []byte, sources []int, takes []float64) ([]byte, error) {
	sources, takes = SparseTakes(sources, takes)
	if len(sources) != len(takes) {
		return nil, fmt.Errorf("store: encode takes: %d sources for %d takes", len(sources), len(takes))
	}
	for k, p := range sources {
		if p < 0 || (k > 0 && p <= sources[k-1]) {
			return nil, fmt.Errorf("store: encode takes: source %d (entry %d) is negative or out of order", p, k)
		}
	}
	return wirefmt.AppendSparseFloat64s(dst, sources, takes), nil
}

func appendState(dst []byte, st *State) ([]byte, error) {
	dst = wirefmt.AppendBytes(dst, st.Declared)
	dst = wirefmt.AppendUvarint(dst, uint64(len(st.Names)))
	for _, name := range st.Names {
		dst = wirefmt.AppendString(dst, name)
	}
	dst = wirefmt.AppendFloat64s(dst, st.Reported)
	dst = wirefmt.AppendFloat64s(dst, st.Avail)
	dst = wirefmt.AppendUvarint(dst, uint64(len(st.Shares)))
	for _, sh := range st.Shares {
		dst = appendInt(dst, sh.From)
		dst = appendInt(dst, sh.To)
		dst = wirefmt.AppendFloat64(dst, sh.Fraction)
		dst = wirefmt.AppendFloat64(dst, sh.Quantity)
		dst = wirefmt.AppendBool(dst, sh.Revoked)
	}
	dst = wirefmt.AppendUvarint(dst, uint64(len(st.Leases)))
	for _, ls := range st.Leases {
		dst = appendInt(dst, ls.Token)
		var err error
		if dst, err = appendTakes(dst, ls.Sources, ls.Takes); err != nil {
			return nil, fmt.Errorf("lease %d: %w", ls.Token, err)
		}
		dst = wirefmt.AppendInt(dst, ls.Expires)
		dst = appendInt(dst, ls.ParentLease)
	}
	dst = wirefmt.AppendUvarint(dst, uint64(len(st.Borrows)))
	for _, b := range st.Borrows {
		dst = appendInt(dst, b.ParentLease)
		dst = wirefmt.AppendFloat64(dst, b.Amount)
	}
	return appendInt(dst, st.NextLease), nil
}

// Smallest encodings of the repeated parts of a state record, which bound
// the counts the decoder will size a slice by.
const (
	minNameSize   = 1          // an empty string's length byte
	minShareSize  = 2 + 16 + 1 // two ids, two floats, the revoked byte
	minLeaseSize  = 4          // token, an empty takes count, expiry, parent lease
	minBorrowSize = 1 + 8      // parent lease, amount
)

// decodeRecord parses one frame payload, binary or legacy JSON.
func decodeRecord(payload []byte) (*Record, error) {
	if len(payload) > 0 && payload[0] == legacyJSONLead {
		rec := &Record{}
		if err := json.Unmarshal(payload, rec); err != nil {
			return nil, fmt.Errorf("store: decode legacy record: %w", err)
		}
		if !rec.Kind.Valid() {
			return nil, fmt.Errorf("store: decode legacy record: invalid kind %d", uint8(rec.Kind))
		}
		return rec, nil
	}
	d := wirefmt.NewDec(payload)
	rec := &Record{Kind: Kind(d.Byte()), Seq: d.Uvarint()}
	switch rec.Kind {
	case KindState:
		rec.State = decodeState(d)
	case KindSnapshotLoad:
		rec.Snapshot = d.Bytes()
	case KindRegister:
		rec.Principal = readInt(d)
		rec.Name = d.String()
		rec.Capacity = d.Float64()
	case KindReport:
		rec.Principal = readInt(d)
		rec.Available = d.Float64()
	case KindShare:
		rec.From = readInt(d)
		rec.To = readInt(d)
		rec.Fraction = d.Float64()
		rec.Quantity = d.Float64()
		rec.Ticket = readInt(d)
	case KindRevoke:
		rec.Ticket = readInt(d)
	case KindAlloc:
		rec.Principal = readInt(d)
		rec.Amount = d.Float64()
		rec.Lease = readInt(d)
		rec.Sources, rec.Takes = d.SparseFloat64s()
		rec.Expires = d.Int()
		rec.ParentLease = readInt(d)
	case KindRelease, KindExpire:
		rec.Lease = readInt(d)
		rec.ParentLease = readInt(d)
	case KindRenew:
		rec.Lease = readInt(d)
		rec.Expires = d.Int()
	case KindBorrow:
		rec.Principal = readInt(d)
		rec.Amount = d.Float64()
		rec.ParentLease = readInt(d)
	case KindRepay:
		rec.ParentLease = readInt(d)
	default:
		return nil, fmt.Errorf("store: decode record: invalid kind %d", uint8(rec.Kind))
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("store: decode %v record: %w", rec.Kind, err)
	}
	return rec, nil
}

func decodeState(d *wirefmt.Dec) *State {
	st := &State{Declared: d.Bytes()}
	if n := d.Count(minNameSize); n > 0 {
		st.Names = make([]string, n)
		for i := range st.Names {
			st.Names[i] = d.String()
		}
	}
	st.Reported = d.Float64s()
	st.Avail = d.Float64s()
	if n := d.Count(minShareSize); n > 0 {
		st.Shares = make([]ShareState, n)
		for i := range st.Shares {
			st.Shares[i] = ShareState{From: readInt(d), To: readInt(d), Fraction: d.Float64(), Quantity: d.Float64(), Revoked: d.Bool()}
		}
	}
	if n := d.Count(minLeaseSize); n > 0 {
		st.Leases = make([]LeaseState, n)
		for i := range st.Leases {
			ls := &st.Leases[i]
			ls.Token = readInt(d)
			ls.Sources, ls.Takes = d.SparseFloat64s()
			ls.Expires = d.Int()
			ls.ParentLease = readInt(d)
		}
	}
	if n := d.Count(minBorrowSize); n > 0 {
		st.Borrows = make([]BorrowState, n)
		for i := range st.Borrows {
			st.Borrows[i] = BorrowState{ParentLease: readInt(d), Amount: d.Float64()}
		}
	}
	st.NextLease = readInt(d)
	return st
}
