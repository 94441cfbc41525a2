package store

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/wirefmt"
)

// fuzzPrefix is a short valid log whose frames seed the corpus and whose
// records must survive any fuzzed tail appended after them.
func fuzzPrefix(t testing.TB) ([]byte, []*Record) {
	recs := []*Record{
		{Seq: 1, Kind: KindRegister, Name: "node0", Capacity: 100},
		{Seq: 2, Kind: KindReport, Principal: 0, Available: 55.5},
		{Seq: 3, Kind: KindAlloc, Lease: 1, Sources: []int{0}, Takes: []float64{10}, Expires: 42},
	}
	var buf []byte
	for _, r := range recs {
		buf = append(buf, binaryFrame(t, r)...)
	}
	return buf, recs
}

// FuzzLogDecode feeds arbitrary bytes through the frame decoder. The
// decoder must never panic, must treat any corruption as a clean stop at
// the last valid record, must read nothing from a binary frame that it
// would not write back byte for byte, and must always recover the intact
// prefix when garbage is appended after valid frames.
func FuzzLogDecode(f *testing.F) {
	prefix, _ := fuzzPrefix(f)
	f.Add([]byte{})
	f.Add(prefix)
	f.Add(prefix[:len(prefix)-3])                // torn tail
	f.Add(append([]byte{0xFF, 0xFF}, prefix...)) // garbage header
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})
	logs, _ := legacyAndBinary(f)
	f.Add(logs["binary"])
	f.Add(logs["json"])
	f.Add(logs["mixed"]) // JSON with a binary tail
	var every []byte
	for _, rec := range allKinds() {
		every = append(every, binaryFrame(f, rec)...)
	}
	f.Add(every)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Raw bytes: any outcome but a panic or a read error is fine, and
		// the reported valid length must cover exactly the decoded frames.
		recs, n, err := DecodeRecords(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("in-memory decode errored: %v", err)
		}
		if n < 0 || n > int64(len(data)) {
			t.Fatalf("valid length %d outside [0, %d]", n, len(data))
		}
		reDecoded, n2, err := DecodeRecords(bytes.NewReader(data[:n]))
		if err != nil || n2 != n || len(reDecoded) != len(recs) {
			t.Fatalf("valid prefix not self-consistent: %d records/%d bytes vs %d/%d (%v)",
				len(reDecoded), n2, len(recs), n, err)
		}
		// One spelling per record: an accepted binary frame is the frame
		// the encoder writes for the record it decoded to.
		rest := data[:n]
		for i, rec := range recs {
			size := wirefmt.FrameHeaderSize + int(binary.LittleEndian.Uint32(rest))
			frame := rest[:size]
			rest = rest[size:]
			if frame[wirefmt.FrameHeaderSize] == legacyJSONLead {
				continue
			}
			again, err := appendFrame(nil, rec)
			if err != nil || !bytes.Equal(again, frame) {
				t.Fatalf("record %d (%v) accepted from % x re-encodes to % x (%v)", i, rec.Kind, frame, again, err)
			}
		}

		// Valid frames followed by the fuzz input: the prefix records must
		// always be recovered, in order.
		prefix, want := fuzzPrefix(t)
		got, _, err := DecodeRecords(bytes.NewReader(append(append([]byte{}, prefix...), data...)))
		if err != nil {
			t.Fatalf("prefixed decode errored: %v", err)
		}
		if len(got) < len(want) {
			t.Fatalf("lost prefix records: got %d, want at least %d", len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("prefix record %d mutated:\ngot  %+v\nwant %+v", i, got[i], want[i])
			}
		}
	})
}
