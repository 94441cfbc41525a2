package store

import (
	"bytes"
	"os"
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
	var frames [][]byte
	for _, r := range recs {
		frames = append(frames, binaryFrame(t, r))
	}
	return logOf(frames...), recs
}

// FuzzLogDecode feeds arbitrary bytes through the log decoder, as a file
// of this build (the magic first) or a legacy one. The decoder must never
// panic, must treat any corruption as a clean stop at the last valid
// record, and must always recover the intact prefix when garbage is
// appended after valid frames. It must read nothing it would not write
// back: a frame of a current file re-encodes to its own bytes, header
// included; the binary payload of a legacy frame is the one this encoding
// writes for its record — or, from a record of the first binary encoding,
// one this encoding writes and reads back the same.
func FuzzLogDecode(f *testing.F) {
	prefix, _ := fuzzPrefix(f)
	f.Add([]byte{})
	f.Add([]byte(fileMagic))
	f.Add(prefix)
	f.Add(prefix[:len(prefix)-3])                // torn tail
	f.Add(append([]byte{0xFF, 0xFF}, prefix...)) // garbage header
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})
	f.Add(append([]byte(fileMagic), 0x83, 0x00, 0, 0, 0, 0, 1, 2, 3)) // padded length
	logs, _ := legacyAndBinary(f)
	f.Add(logs["binary"])
	f.Add(logs["json"])
	f.Add(logs["mixed"]) // JSON with a binary tail
	f.Add(reencoded(f, allKinds()))
	for _, golden := range []string{v2Golden, v3Golden} {
		raw, err := os.ReadFile(golden)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	mixed, _ := v2ThenV3(f)
	f.Add(mixed)
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
		// One spelling per record.
		valid, base := data[:n], 0
		legacy := !bytes.HasPrefix(valid, []byte(fileMagic))
		fr := wirefmt.NewLegacyReader(bytes.NewReader(valid), n)
		if !legacy {
			base = len(fileMagic)
			fr = wirefmt.NewReader(bytes.NewReader(valid[base:]), n-int64(base))
		}
		for i, rec := range recs {
			start := base + int(fr.Offset())
			payload, err := fr.Next()
			if err != nil {
				t.Fatalf("record %d: the frame it was decoded from does not read: %v", i, err)
			}
			frame := valid[start : base+int(fr.Offset())]
			if !legacy {
				if again, err := appendFrame(nil, rec); err != nil || !bytes.Equal(again, frame) {
					t.Fatalf("record %d (%v) accepted from % x re-encodes to % x (%v)", i, rec.Kind, frame, again, err)
				}
				continue
			}
			if payload[0] == legacyJSONLead {
				continue
			}
			again, err := appendRecord(nil, rec)
			if k := Kind(payload[0]); k == KindAlloc || k == KindState {
				// The first binary encoding: its record is written in
				// this one, and that must read back as itself.
				back, _, derr := DecodeRecords(bytes.NewReader(logOf(binaryFrame(t, rec))))
				if err != nil || derr != nil || len(back) != 1 {
					t.Fatalf("record %d (%v) accepted from % x is not written again (%v, %v)", i, k, payload, err, derr)
				}
				if twice, err := appendRecord(nil, back[0]); err != nil || !bytes.Equal(twice, again) {
					t.Fatalf("record %d (%v) from % x is written as % x, which reads back as % x (%v)", i, k, payload, again, twice, err)
				}
				continue
			}
			if err != nil || !bytes.Equal(again, payload) {
				t.Fatalf("record %d (%v) accepted from legacy payload % x re-encodes to % x (%v)", i, rec.Kind, payload, again, err)
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
