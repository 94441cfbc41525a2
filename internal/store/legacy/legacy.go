// Package legacy reads the write-ahead logs that builds before the GWAL
// file magic wrote, and upgrades a log directory to the one format
// internal/store reads. Nothing that serves imports it: cmd/walupgrade
// runs it offline, before a server opens the directory.
//
// Every such file frames its records behind a fixed 8-byte header,
//
//	[4B LE payload length][4B LE CRC-32 (IEEE) of payload][payload]
//
// and each payload's first byte tells its encoding, so one file may mix
// them:
//
//   - '{' (0x7B, no kind byte): the store.Record as encoding/json text,
//     which every build before the binary encoding wrote; an allocation's
//     takes are (src, takes) pairs or, older still, one dense vector;
//   - an alloc or state kind byte without store's 0x80 mark: the first
//     binary encoding, whose takes are protocol version 2's runs of
//     8-byte values behind a bare count (wirefmt's Dec.Runs);
//   - any other byte: a record as the current encoding spells it
//     (store.DecodeRecord).
//
// The magic's first four bytes, read as such a length, are past
// wirefmt.MaxFramePayload, so no legacy file opens with it.
package legacy

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/store"
	"repro/internal/wirefmt"
)

// Upgrade rewrites the log directory dir in the format internal/store
// reads: each of its files that does not open with the file magic is read
// by Decode, and its valid records are written again by store.WriteFile
// with their seq kept — the snapshot first, then the WAL. A file already
// in that format is left as it is, so a second run changes no byte, and a
// run a crash cut short leaves a directory the server refuses until a
// rerun completes it. A record the current format cannot hold (pairs out
// of order or not lined up, which only a JSON-era log can) fails the
// upgrade and leaves its file as it was. Upgrade reports to w, one line a
// file, what it did.
func Upgrade(dir string, w io.Writer) error {
	found := false
	for _, name := range []string{store.SnapshotName, store.WALName} {
		path := filepath.Join(dir, name)
		raw, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return fmt.Errorf("legacy: %w", err)
		}
		found = true
		if _, _, err := store.DecodeRecords(bytes.NewReader(raw)); !errors.Is(err, store.ErrNoMagic) {
			fmt.Fprintf(w, "%s: already in the current format\n", path)
			continue
		}
		recs, valid := Decode(raw)
		if err := store.WriteFile(dir, name, recs); err != nil {
			return fmt.Errorf("legacy: upgrade %s: %w", path, err)
		}
		fmt.Fprintf(w, "%s: %d records rewritten", path, len(recs))
		if dropped := int64(len(raw)) - valid; dropped > 0 {
			fmt.Fprintf(w, ", %d bytes of torn or corrupt tail dropped", dropped)
		}
		fmt.Fprintln(w)
	}
	if !found {
		return fmt.Errorf("legacy: %s holds neither %s nor %s (a sharded log is upgraded one shard<i>/ directory at a time)",
			dir, store.WALName, store.SnapshotName)
	}
	return nil
}

// Decode reads the legacy log file raw up to the first frame that fails a
// check — a torn header or payload, a length past the limit or past raw,
// a CRC mismatch, a payload no vintage decodes, a sequence regression —
// and returns the records before it and the length of the bytes they span.
func Decode(raw []byte) (recs []*store.Record, validLen int64) {
	r := bytes.NewReader(raw)
	fr := wirefmt.NewReader(r, int64(len(raw)))
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return recs, validLen
		}
		payload, err := fr.ReadPayload(uint64(binary.LittleEndian.Uint32(hdr[:4])), len(hdr), binary.LittleEndian.Uint32(hdr[4:]))
		if err != nil {
			return recs, validLen
		}
		rec, err := decodeRecord(payload)
		if err != nil || len(recs) > 0 && rec.Seq <= recs[len(recs)-1].Seq {
			return recs, validLen
		}
		recs = append(recs, rec)
		validLen = fr.Offset()
	}
}

// decodeRecord parses one legacy payload in the encoding its first byte
// names.
func decodeRecord(payload []byte) (*store.Record, error) {
	if len(payload) == 0 {
		return nil, errors.New("legacy: empty payload")
	}
	switch store.Kind(payload[0]) {
	case '{':
		rec := &store.Record{}
		if err := json.Unmarshal(payload, rec); err != nil {
			return nil, fmt.Errorf("legacy: decode JSON record: %w", err)
		}
		if !rec.Kind.Valid() {
			return nil, fmt.Errorf("legacy: decode JSON record: invalid kind %d", uint8(rec.Kind))
		}
		return rec, nil
	case store.KindAlloc, store.KindState:
		return decodeV2(payload)
	}
	return store.DecodeRecord(payload)
}

func readInt(d *wirefmt.Dec) int { return int(d.Int()) }

// takes reads protocol version 2's takes: a bare count, then the runs.
func takes(d *wirefmt.Dec) ([]int, []float64) { return d.Runs(d.Uvarint()) }

// decodeV2 parses an alloc or state record of the first binary encoding:
// the fields of the current one, with version 2's takes.
func decodeV2(payload []byte) (*store.Record, error) {
	d := wirefmt.NewDec(payload)
	rec := &store.Record{Kind: store.Kind(d.Byte()), Seq: d.Uvarint()}
	if rec.Kind == store.KindAlloc {
		rec.Principal = readInt(d)
		rec.Amount = d.Float64()
		rec.Lease = readInt(d)
		rec.Sources, rec.Takes = takes(d)
		rec.Expires = d.Int()
		rec.ParentLease = readInt(d)
	} else {
		rec.State = decodeState(d)
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("legacy: decode version 2 %v record: %w", rec.Kind, err)
	}
	return rec, nil
}

// Smallest encodings of the repeated parts of a state record, which bound
// the counts the decoder will size a slice by.
const (
	minNameSize   = 1          // an empty string's length byte
	minShareSize  = 2 + 16 + 1 // two ids, two floats, the revoked byte
	minLeaseSize  = 4          // token, an empty takes count, expiry, parent lease
	minBorrowSize = 1 + 8      // parent lease, amount
)

func decodeState(d *wirefmt.Dec) *store.State {
	st := &store.State{Declared: d.Bytes()}
	if n := d.Count(minNameSize); n > 0 {
		st.Names = make([]string, n)
		for i := range st.Names {
			st.Names[i] = d.String()
		}
	}
	st.Reported = d.Float64s()
	st.Avail = d.Float64s()
	if n := d.Count(minShareSize); n > 0 {
		st.Shares = make([]store.ShareState, n)
		for i := range st.Shares {
			st.Shares[i] = store.ShareState{From: readInt(d), To: readInt(d), Fraction: d.Float64(), Quantity: d.Float64(), Revoked: d.Bool()}
		}
	}
	if n := d.Count(minLeaseSize); n > 0 {
		st.Leases = make([]store.LeaseState, n)
		for i := range st.Leases {
			ls := &st.Leases[i]
			ls.Token = readInt(d)
			ls.Sources, ls.Takes = takes(d)
			ls.Expires = d.Int()
			ls.ParentLease = readInt(d)
		}
	}
	if n := d.Count(minBorrowSize); n > 0 {
		st.Borrows = make([]store.BorrowState, n)
		for i := range st.Borrows {
			st.Borrows[i] = store.BorrowState{ParentLease: readInt(d), Amount: d.Float64()}
		}
	}
	st.NextLease = readInt(d)
	return st
}
