package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"repro/internal/wirefmt"
)

// legacyFrame frames payload the way every log was written before the
// file magic: behind a fixed 4-byte length and the CRC.
func legacyFrame(payload []byte) []byte {
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

func binaryFrame(t testing.TB, rec *Record) []byte {
	t.Helper()
	frame, err := appendFrame(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// logOf is the log file this build writes holding frames.
func logOf(frames ...[]byte) []byte {
	return append([]byte(fileMagic), bytes.Join(frames, nil)...)
}

// allKinds is one record of every kind, each using every field of its
// kind's row, with floats at the edges of the range (no NaN: DeepEqual
// could not compare it).
func allKinds() []*Record {
	tiny, huge := math.SmallestNonzeroFloat64, math.MaxFloat64
	return []*Record{
		{Seq: 1, Kind: KindSnapshotLoad, Snapshot: []byte(`{"principals":[{"name":"A"}]}`)},
		{Seq: 2, Kind: KindRegister, Principal: 3, Name: "site/n∞", Capacity: huge},
		{Seq: 3, Kind: KindReport, Principal: 1 << 40, Available: tiny},
		{Seq: 4, Kind: KindShare, From: 2, To: 5, Fraction: 0.1, Quantity: -math.MaxFloat64, Ticket: 9},
		{Seq: 5, Kind: KindRevoke, Ticket: 9},
		{Seq: 6, Kind: KindAlloc, Principal: 4, Amount: 1e-300, Lease: 77, Sources: []int{0, 1, 2, 9, 4096}, Takes: []float64{huge, -0.5, tiny, 1, math.Copysign(0, -1)}, Expires: 1_000_003_600_000_000_000, ParentLease: 12},
		{Seq: 7, Kind: KindAlloc, Principal: 4, Amount: 0, Lease: 78}, // empty takes
		{Seq: 8, Kind: KindRenew, Lease: 77, Expires: math.MinInt64},
		{Seq: 9, Kind: KindRelease, Lease: 77, ParentLease: 12},
		{Seq: 10, Kind: KindExpire, Lease: 78},
		{Seq: 11, Kind: KindBorrow, Principal: 4, Amount: 33.25, ParentLease: 13},
		{Seq: 12, Kind: KindRepay, ParentLease: 13},
		{Seq: 1 << 62, Kind: KindState, State: &State{
			Declared: []byte("{\n  \"principals\": []\n}"),
			Names:    []string{"A", "", "site/late"},
			Reported: []float64{100, 0, huge},
			Avail:    []float64{tiny, 0, -1},
			Shares: []ShareState{
				{From: 0, To: 2, Fraction: 0.5},
				{From: 2, To: 1, Quantity: 40, Revoked: true},
			},
			Leases: []LeaseState{
				{Token: 1, Sources: []int{0, 2}, Takes: []float64{100, 30}, Expires: 1_000_003_600_000_000_000},
				{Token: 5, Sources: []int{1}, Takes: []float64{0.125}, ParentLease: 7},
				{Token: 6},
			},
			Borrows:   []BorrowState{{ParentLease: 7, Amount: 12.5}, {ParentLease: 8, Amount: tiny}},
			NextLease: 7,
		}},
		{Seq: 1<<62 + 1, Kind: KindState, State: &State{}},
	}
}

// TestRecordRoundTripAllKinds: every kind decodes to the record that was
// encoded, and what the decoder accepted re-encodes to its own bytes.
func TestRecordRoundTripAllKinds(t *testing.T) {
	seen := map[Kind]bool{}
	for _, rec := range allKinds() {
		seen[rec.Kind] = true
		frame := binaryFrame(t, rec)
		got, n, err := DecodeRecords(bytes.NewReader(logOf(frame)))
		if err != nil || n != int64(len(logOf(frame))) || len(got) != 1 {
			t.Fatalf("%v: decoded %d records, %d of %d bytes (%v)", rec.Kind, len(got), n, len(frame), err)
		}
		if !reflect.DeepEqual(got[0], rec) {
			t.Errorf("%v round trip:\ngot  %+v\nwant %+v", rec.Kind, got[0], rec)
		}
		if rec.State != nil && !reflect.DeepEqual(got[0].State, rec.State) {
			t.Errorf("state round trip:\ngot  %+v\nwant %+v", got[0].State, rec.State)
		}
		if again := binaryFrame(t, got[0]); !bytes.Equal(again, frame) {
			t.Errorf("%v: re-encoded to % x, was % x", rec.Kind, again, frame)
		}
	}
	for k := range kindNames {
		if !seen[k] {
			t.Errorf("allKinds has no %v record", k)
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/all_kinds_v4/wal.log from the encoder")

// The log of allKinds in each vintage: v2Golden as the first binary
// encoding wrote it, whose takes are protocol version 2's 8-byte runs, and
// v3Golden as the next did, both behind the 8-byte frame header and no
// file magic; v4Golden as this build writes it. The first two are read
// only by the upgrader (upgrade_test.go).
var (
	v2Golden = filepath.Join("testdata", "all_kinds", WALName)
	v3Golden = filepath.Join("testdata", "all_kinds_v3", WALName)
	v4Golden = filepath.Join("testdata", "all_kinds_v4", WALName)
)

// TestBinaryFormatGolden pins the bytes: testdata/all_kinds_v4/wal.log is
// allKinds as this encoding first wrote them. A round trip cannot see two
// fields swapped in encoder and decoder alike; a log on someone's disk
// can. Change the file only with a new kind or a deliberate, versioned
// change of format (go test ./internal/store -run Golden -update), which
// adds its upgrader step and keeps the file it replaces as the input that
// step must read, as testdata/all_kinds and testdata/all_kinds_v3 are
// kept for the upgrader (TestV2BinaryLogStillReads,
// TestV3LegacyHeaderLogStillReads).
func TestBinaryFormatGolden(t *testing.T) {
	now := reencoded(t, allKinds())
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(v4Golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(v4Golden, now, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(v4Golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(now, golden) {
		t.Fatalf("the encoder no longer writes %s byte for byte: logs in the field would be misread", v4Golden)
	}
	got, n, err := DecodeRecords(bytes.NewReader(golden))
	if err != nil || n != int64(len(golden)) || !reflect.DeepEqual(got, allKinds()) {
		t.Fatalf("%s decodes to %d records, %d of %d bytes (%v)", v4Golden, len(got), n, len(golden), err)
	}
}

// reencoded is the log this build writes of recs.
func reencoded(t testing.TB, recs []*Record) []byte {
	var frames [][]byte
	for _, rec := range recs {
		frames = append(frames, binaryFrame(t, rec))
	}
	return logOf(frames...)
}

// TestDenseTakesWrittenAsPairs: the dense input form is stored as its
// non-zero pairs, in an alloc record and in a compacted lease alike.
func TestDenseTakesWrittenAsPairs(t *testing.T) {
	l := NewMemLog()
	if err := l.Append(&Record{Seq: 1, Kind: KindAlloc, Lease: 1, Takes: []float64{0, 2.5, 0, 0, 7}}); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, l)[0]
	if !reflect.DeepEqual(got.Sources, []int{1, 4}) || !reflect.DeepEqual(got.Takes, []float64{2.5, 7}) {
		t.Errorf("alloc read back as %v from %v", got.Takes, got.Sources)
	}
	state := &Record{Seq: 2, Kind: KindState, State: &State{Leases: []LeaseState{{Token: 1, Takes: []float64{3, 0}}}}}
	if err := l.Compact(state); err != nil {
		t.Fatal(err)
	}
	ls := replayAll(t, l)[0].State.Leases[0]
	if !reflect.DeepEqual(ls.Sources, []int{0}) || !reflect.DeepEqual(ls.Takes, []float64{3}) {
		t.Errorf("lease read back as %v from %v", ls.Takes, ls.Sources)
	}
}

// TestAppendRefusesUnreadableRecords: a record the decoder would stop at
// is refused when it is written, not discovered at the next recovery.
func TestAppendRefusesUnreadableRecords(t *testing.T) {
	cases := map[string]*Record{
		"out of order":    {Kind: KindAlloc, Sources: []int{1, 0}, Takes: []float64{1, 1}},
		"repeated source": {Kind: KindAlloc, Sources: []int{1, 1}, Takes: []float64{1, 1}},
		"negative source": {Kind: KindAlloc, Sources: []int{-1}, Takes: []float64{1}},
		"more takes":      {Kind: KindAlloc, Sources: []int{0}, Takes: []float64{1, 1}},
		"more sources":    {Kind: KindAlloc, Sources: []int{0, 1}, Takes: []float64{1}},
		"bad lease":       {Kind: KindState, State: &State{Leases: []LeaseState{{Token: 1, Sources: []int{2, 1}, Takes: []float64{1, 1}}}}},
		"no state":        {Kind: KindState},
		"no kind":         {},
		"unknown kind":    {Kind: 13},
	}
	for name, rec := range cases {
		l := NewMemLog()
		if err := l.Append(rec); err == nil {
			t.Errorf("%s: appended", name)
		}
		if l.Len() != 0 || len(replayAll(t, l)) != 0 {
			t.Errorf("%s: the refused record left something in the log", name)
		}
	}
}

// TestCurrentLogHoldsOneSpelling: behind the file magic only this
// encoding is read — a JSON record or version 2 takes, which a legacy file
// may hold, stop the scan there — and a legacy file holding them is
// refused whole, not read as an empty log.
func TestCurrentLogHoldsOneSpelling(t *testing.T) {
	reg := binaryFrame(t, &Record{Seq: 1, Kind: KindRegister, Name: "A", Capacity: 10})
	jsPayload, err := json.Marshal(&Record{Seq: 2, Kind: KindReport, Available: 5})
	if err != nil {
		t.Fatal(err)
	}
	v2Payload, err := appendRecord(nil, &Record{Seq: 2, Kind: KindAlloc, Lease: 1})
	if err != nil {
		t.Fatal(err)
	}
	v2Payload[0] &^= takesV3 // no takes: the same bytes in either spelling
	for name, payload := range map[string][]byte{"json": jsPayload, "version 2 takes": v2Payload} {
		frame, err := wirefmt.EndFrame(append(wirefmt.BeginFrame(nil), payload...), 0)
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := DecodeRecords(bytes.NewReader(logOf(reg, frame)))
		if err != nil || len(got) != 1 || n != int64(len(logOf(reg))) {
			t.Errorf("%s behind the magic: %d records, %d bytes (%v); want the register alone", name, len(got), n, err)
		}
		if got, n, err := DecodeRecords(bytes.NewReader(legacyFrame(payload))); !errors.Is(err, ErrNoMagic) || len(got) != 0 || n != 0 {
			t.Errorf("%s in a legacy file: %d records, %d bytes (%v); want ErrNoMagic", name, len(got), n, err)
		}
	}
}

// TestFileLogAppendAllocatesNothing: the frame is built in the log's own
// buffer and handed to one write.
func TestFileLogAppendAllocatesNothing(t *testing.T) {
	l, err := OpenFileLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	alloc := &Record{Kind: KindAlloc, Principal: 3, Amount: 120, Lease: 5, Sources: []int{3, 4, 9}, Takes: []float64{100, 15, 5}, Expires: 1_000_003_600_000_000_000}
	release := &Record{Kind: KindRelease, Lease: 5}
	for name, rec := range map[string]*Record{"alloc": alloc, "release": release} {
		if err := l.Append(rec); err != nil { // grows the buffer once
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			rec.Seq++
			if err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("Append of a %s record allocates %v objects, want 0", name, allocs)
		}
	}
}

// flakyFile fails chosen writes the way a full disk does: some of the
// bytes land, then ENOSPC.
type flakyFile struct {
	*os.File
	failWrite map[int]bool // 1-based index of WriteAt calls to fail
	writes    int
}

func (f *flakyFile) WriteAt(p []byte, off int64) (int, error) {
	f.writes++
	if f.failWrite[f.writes] {
		n, _ := f.File.WriteAt(p[:len(p)/2], off)
		return n, syscall.ENOSPC
	}
	return f.File.WriteAt(p, off)
}

// TestFileLogSurvivesFailedWrite: one failed write costs the log that
// record and nothing else — the torn bytes are gone from the file and
// the appends after it are read back.
func TestFileLogSurvivesFailedWrite(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	l.wal = &flakyFile{File: l.wal.(*os.File), failWrite: map[int]bool{3: true, 4: true}}
	recs := sampleRecords()
	var want []*Record
	for i, rec := range recs {
		err := l.Append(rec)
		if failed := i == 2 || i == 3; failed != (err != nil) {
			t.Fatalf("append %d: err = %v", i, err)
		} else if failed {
			if !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("append %d: err = %v, want it to wrap ENOSPC", i, err)
			}
			continue
		}
		want = append(want, rec)
	}
	if got := replayAll(t, l); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after failed writes:\ngot  %+v\nwant %+v", got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, WALName))
	if err != nil {
		t.Fatal(err)
	}
	if _, n, _ := DecodeRecords(bytes.NewReader(raw)); n != int64(len(raw)) {
		t.Fatalf("WAL holds %d bytes, %d of them whole frames", len(raw), n)
	}
}

// TestDecodeRefusesLengthBeyondSource: a length field is checked against
// what the source still holds before a payload buffer is sized by it.
func TestDecodeRefusesLengthBeyondSource(t *testing.T) {
	prefix := logOf(binaryFrame(t, sampleRecords()[0]))
	lying := append(append([]byte(nil), prefix...), 0x80, 0x80, 0x80, 0x04, 1, 2, 3, 4, 'x') // claims 8 MB, holds 1 byte
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	recs, n, err := DecodeRecords(bytes.NewReader(lying))
	runtime.ReadMemStats(&after)
	if err != nil || len(recs) != 1 || n != int64(len(prefix)) {
		t.Fatalf("decoded %d records, %d bytes (%v)", len(recs), n, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("decoding a length field of 8 MB over a 1-byte payload allocated %d bytes", grew)
	}
}

func TestDumpJSON(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for _, rec := range recs[:3] {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	state := &Record{Seq: 3, Kind: KindState, State: &State{Names: []string{"A", "B"}}}
	if err := l.Compact(state); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[3:] {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := DumpJSON(dir, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("dumped %d lines, want the snapshot and three tail records:\n%s", len(lines), out.String())
	}
	for i, want := range []*Record{state, recs[3], recs[4], recs[5]} {
		got := &Record{}
		if err := json.Unmarshal([]byte(lines[i]), got); err != nil {
			t.Fatalf("line %d is not JSON: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("line %d = %+v, want %+v", i, got, want)
		}
	}

	walPath := filepath.Join(dir, WALName)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, raw[:len(raw)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	lastStart := len(raw) - len(binaryFrame(t, recs[5]))
	out.Reset()
	err = DumpJSON(dir, &out)
	if err == nil || !strings.Contains(err.Error(), "byte offset "+strconv.Itoa(lastStart)) {
		t.Fatalf("torn tail: err = %v, want byte offset %d", err, lastStart)
	}
	if got := strings.Count(out.String(), "\n"); got != 3 {
		t.Errorf("torn tail: dumped %d lines before the error, want 3", got)
	}
}

// BenchmarkFileLogAppend times one alloc record of three sources going
// into a file WAL and reports its size on disk.
func BenchmarkFileLogAppend(b *testing.B) {
	l, err := OpenFileLog(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rec := &Record{Kind: KindAlloc, Principal: 3, Amount: 120, Lease: 5, Sources: []int{3, 4, 9}, Takes: []float64{100, 15, 5}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Seq = uint64(i + 1)
		rec.Lease = i + 1
		if err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(l.size)/float64(b.N), "B/record")
}
