package store

import (
	"bytes"
	"errors"
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

// FuzzLogDecode feeds arbitrary bytes through the log decoder as a log
// file. The decoder must never panic, must refuse bytes that do not open
// with the file magic rather than read them as an empty log, must treat
// any corruption as a clean stop at the last valid record, and must always
// recover the intact prefix when garbage is appended after valid frames.
// It must read nothing it would not write back: every frame it accepts
// re-encodes to its own bytes, header included.
func FuzzLogDecode(f *testing.F) {
	prefix, _ := fuzzPrefix(f)
	golden := reencoded(f, allKinds())
	frame := func(payload []byte) []byte {
		frame, err := wirefmt.EndFrame(append(wirefmt.BeginFrame(nil), payload...), 0)
		if err != nil {
			f.Fatal(err)
		}
		return frame
	}
	jsPayload := []byte(`{"seq":4,"kind":4,"available":5}`)
	v2Payload, err := appendRecord(nil, &Record{Seq: 4, Kind: KindAlloc, Lease: 1})
	if err != nil {
		f.Fatal(err)
	}
	v2Payload[0] &^= takesV3
	f.Add([]byte{})
	f.Add([]byte(fileMagic))
	f.Add(prefix)
	f.Add(prefix[:len(prefix)-3])                                           // torn tail
	f.Add(append([]byte(fileMagic+"\xFF\xFF"), prefix[len(fileMagic):]...)) // garbage header
	f.Add(append([]byte(fileMagic), 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0))    // a length over the limit
	f.Add(append([]byte(fileMagic), 0x83, 0x00, 0, 0, 0, 0, 1, 2, 3))       // padded length
	f.Add(reencoded(f, append(sampleRecords(), &Record{Seq: 7, Kind: KindAlloc, Lease: 2, Sources: []int{1}, Takes: []float64{4}})))
	f.Add(golden)
	f.Add(golden[:len(golden)-5])                                             // torn inside the last state record
	f.Add(reencoded(f, allKinds()[12:13]))                                    // a compacted snapshot
	f.Add(append(append([]byte(nil), prefix...), frame(jsPayload)...))        // a JSON payload behind the magic
	f.Add(append(append([]byte(nil), prefix...), frame(v2Payload)...))        // version 2 takes behind the magic
	f.Add(append(append([]byte(nil), golden...), prefix[len(fileMagic):]...)) // a sequence regression
	f.Fuzz(func(t *testing.T, data []byte) {
		// Raw bytes: any outcome but a panic or a read error is fine, and
		// the reported valid length must cover exactly the decoded frames.
		// Bytes that do not open with the magic, or a torn prefix of it,
		// are refused whole.
		recs, n, err := DecodeRecords(bytes.NewReader(data))
		head := data[:min(len(data), len(fileMagic))]
		if refused := string(head) != fileMagic[:len(head)]; refused != (err != nil) || err != nil && !errors.Is(err, ErrNoMagic) {
			t.Fatalf("a file opening % x: err = %v", head, err)
		}
		if n < 0 || n > int64(len(data)) || err != nil && (n != 0 || len(recs) != 0) {
			t.Fatalf("valid length %d outside [0, %d], %d records (%v)", n, len(data), len(recs), err)
		}
		reDecoded, n2, err := DecodeRecords(bytes.NewReader(data[:n]))
		if err != nil || n2 != n || len(reDecoded) != len(recs) {
			t.Fatalf("valid prefix not self-consistent: %d records/%d bytes vs %d/%d (%v)",
				len(reDecoded), n2, len(recs), n, err)
		}
		// One spelling per record.
		valid := data[:n]
		if n > 0 {
			valid = valid[len(fileMagic):]
		}
		fr := wirefmt.NewReader(bytes.NewReader(valid), int64(len(valid)))
		for i, rec := range recs {
			start := fr.Offset()
			if _, err := fr.Next(); err != nil {
				t.Fatalf("record %d: the frame it was decoded from does not read: %v", i, err)
			}
			frame := valid[start:fr.Offset()]
			if again, err := appendFrame(nil, rec); err != nil || !bytes.Equal(again, frame) {
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
