package store

import (
	"fmt"

	"repro/internal/wirefmt"
)

// Record encoding. A log file is a file magic and then a sequence of
// wirefmt CRC frames
//
//	"GWAL" · [uvarint payload length][4B LE CRC-32 (IEEE) of payload][payload] · …
//
// and a payload is one Record in wirefmt's field primitives:
//
//	[kind byte][uvarint seq][the kind's fields, in this order]
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
// The kind byte is the Kind (1–12), with takesV3 (0x80) added to it in
// the two kinds that carry takes, alloc and state. Ids, tokens and
// expiries are zigzag ints, amounts 8-byte floats, n× a uvarint count,
// revoked one 0/1 byte, and takes wirefmt.AppendTakes's spelling of
// (Sources, Takes) — pairs only: a record handed over in the dense form
// (nil Sources) is written as its non-zero pairs and read back that way.
// A field outside its kind's row is not stored. The decoder is strict (no
// padded length or uvarint, no split run, no padded take, no trailing
// byte), so a frame it accepts re-encodes to its own bytes.
//
// This is the one format the store reads: a file without the magic is
// refused, never read as an empty log. Logs written before the magic are
// rewritten in this format offline, by cmd/walupgrade (the readers of
// every older vintage live in internal/store/legacy), and a change to this
// format adds one step there (DESIGN.md §7b has the policy).

// takesV3 marks the kind byte of the two kinds that carry takes, alloc and
// state; their bare bytes were the first binary encoding's.
const takesV3 = 0x80

// fileMagic opens every log file this build writes. Its first four bytes
// read as a legacy frame's length are 0x4C415747, far beyond
// wirefmt.MaxFramePayload, so no legacy file can open with it.
const fileMagic = "GWAL"

// appendFrame appends rec to dst as one frame.
func appendFrame(dst []byte, rec *Record) ([]byte, error) {
	buf, err := appendRecord(wirefmt.BeginFrame(dst), rec)
	if err != nil {
		return dst, err
	}
	if buf, err = wirefmt.EndFrame(buf, len(dst)); err != nil {
		return dst, fmt.Errorf("store: encode %v record: %w", rec.Kind, err)
	}
	return buf, nil
}

func appendInt(dst []byte, v int) []byte { return wirefmt.AppendInt(dst, int64(v)) }
func readInt(d *wirefmt.Dec) int         { return int(d.Int()) }

// appendRecord appends rec's payload to dst.
func appendRecord(dst []byte, rec *Record) ([]byte, error) {
	if rec.Kind == KindAlloc || rec.Kind == KindState {
		dst = append(dst, byte(rec.Kind)|takesV3)
	} else {
		dst = append(dst, byte(rec.Kind))
	}
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

// appendTakes appends an allocation's takes as pairs. AppendTakes refuses
// pairs the decoder would: a record it cannot read takes every later
// record of the log with it at the next recovery.
func appendTakes(dst []byte, sources []int, takes []float64) ([]byte, error) {
	sources, takes = SparseTakes(sources, takes)
	dst, err := wirefmt.AppendTakes(dst, sources, takes)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return dst, nil
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

// DecodeRecord parses one frame payload of this format. The strict
// decoder refuses any other spelling, so a payload it accepts re-encodes
// to its own bytes.
func DecodeRecord(payload []byte) (*Record, error) {
	d := wirefmt.NewDec(payload)
	lead := d.Byte()
	rec := &Record{Kind: Kind(lead &^ takesV3), Seq: d.Uvarint()}
	if v3, hasTakes := lead&takesV3 != 0, rec.Kind == KindAlloc || rec.Kind == KindState; v3 != hasTakes {
		return nil, fmt.Errorf("store: decode record: invalid kind byte %#x", lead)
	}
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
		rec.Sources, rec.Takes = d.Takes()
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
			ls.Sources, ls.Takes = d.Takes()
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
