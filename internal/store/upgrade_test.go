package store_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	. "repro/internal/store"
	"repro/internal/store/legacy"
)

// The logs builds before the file magic wrote reach this package only
// through the upgrader: these tests write them, upgrade them with
// internal/store/legacy, and hold the store to the records they held.

// jsonFrame frames rec the way every log was written before the binary
// encoding: the Record as encoding/json text inside a legacy frame.
func jsonFrame(t testing.TB, rec *Record) []byte {
	t.Helper()
	payload, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return LegacyFrame(payload)
}

// legacyBinaryFrame frames rec's payload in the current encoding inside a
// legacy frame, as the last build before the file magic wrote it.
func legacyBinaryFrame(t testing.TB, rec *Record) []byte {
	t.Helper()
	payload, err := AppendRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	return LegacyFrame(payload)
}

func binaryFrame(t testing.TB, rec *Record) []byte {
	t.Helper()
	frame, err := AppendFrame(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// logOf is the log file this build writes holding frames.
func logOf(frames ...[]byte) []byte {
	return append([]byte(FileMagic), bytes.Join(frames, nil)...)
}

// reencoded is the log this build writes of recs.
func reencoded(t testing.TB, recs []*Record) []byte {
	var frames [][]byte
	for _, rec := range recs {
		frames = append(frames, binaryFrame(t, rec))
	}
	return logOf(frames...)
}

func readFile(t testing.TB, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// legacyPayloads returns the payloads of raw's frames read behind the
// legacy 8-byte header, up to the first that does not fit: none for a
// file of this build, whose magic read as a length runs past any file.
func legacyPayloads(raw []byte) [][]byte {
	var out [][]byte
	for len(raw) >= 8 {
		n := uint64(binary.LittleEndian.Uint32(raw))
		if n > uint64(len(raw)-8) {
			break
		}
		out, raw = append(out, raw[8:8+n]), raw[8+n:]
	}
	return out
}

// v2TakesRecords counts the frames of a legacy log whose kind byte is
// that of an alloc or state record as the first binary encoding wrote it,
// without the 0x80 mark.
func v2TakesRecords(raw []byte) int {
	n := 0
	for _, payload := range legacyPayloads(raw) {
		if k := Kind(payload[0]); k == KindAlloc || k == KindState {
			n++
		}
	}
	return n
}

// upgradedDir writes files into a new log directory and upgrades it.
func upgradedDir(t testing.TB, files map[string][]byte) string {
	t.Helper()
	dir := t.TempDir()
	for name, raw := range files {
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := legacy.Upgrade(dir, io.Discard); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestV2BinaryLogStillReads: the log the first binary encoding wrote of
// allKinds — its alloc and state records unmarked, their takes 8 bytes
// each — decodes to allKinds and is upgraded to v4Golden byte for byte.
func TestV2BinaryLogStillReads(t *testing.T) {
	raw := readFile(t, V2Golden)
	if n := v2TakesRecords(raw); n != 4 {
		t.Errorf("%s holds %d version 2 alloc and state records, want 4", V2Golden, n)
	}
	got, n := legacy.Decode(raw)
	if n != int64(len(raw)) || !reflect.DeepEqual(got, AllKinds()) {
		t.Fatalf("%s decodes to %d records, %d of %d bytes", V2Golden, len(got), n, len(raw))
	}
	dir := upgradedDir(t, map[string][]byte{WALName: raw})
	again := readFile(t, filepath.Join(dir, WALName))
	if !bytes.Equal(again, readFile(t, V4Golden)) {
		t.Errorf("%s is upgraded to %d bytes that are not %s", V2Golden, len(again), V4Golden)
	}
	if len(again) >= len(raw) {
		t.Errorf("written again in %d bytes, from %d", len(again), len(raw))
	}
}

// TestV3LegacyHeaderLogStillReads: the log of allKinds the last build
// before the file magic wrote — this record encoding behind 8-byte frame
// headers — decodes to allKinds and is upgraded to v4Golden, a header of
// 5 or 6 bytes a frame and the magic in front.
func TestV3LegacyHeaderLogStillReads(t *testing.T) {
	raw := readFile(t, V3Golden)
	got, n := legacy.Decode(raw)
	if n != int64(len(raw)) || !reflect.DeepEqual(got, AllKinds()) {
		t.Fatalf("%s decodes to %d records, %d of %d bytes", V3Golden, len(got), n, len(raw))
	}
	if n := len(legacyPayloads(raw)); n != len(got) || v2TakesRecords(raw) != 0 {
		t.Fatalf("%s holds %d legacy frames, want %d, none of version 2", V3Golden, n, len(got))
	}
	golden := readFile(t, V4Golden)
	dir := upgradedDir(t, map[string][]byte{WALName: raw})
	if again := readFile(t, filepath.Join(dir, WALName)); !bytes.Equal(again, golden) {
		t.Errorf("%s is upgraded to %d bytes that are not %s", V3Golden, len(again), V4Golden)
	}
	if saved := len(raw) - len(golden); saved < 2*len(got)-len(FileMagic) {
		t.Errorf("the varint header saves %d bytes over %d frames", saved, len(got))
	}
}

// TestV2LogAppendsAndCompactsToV3: a directory whose WAL the first binary
// encoding wrote is refused until it is upgraded; then it is opened,
// appended to and compacted by this build and replays the same records at
// every step, the appends land behind the upgraded WAL (v4Golden), and no
// file on disk is in the old spelling.
func TestV2LogAppendsAndCompactsToV3(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, WALName), readFile(t, V2Golden), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileLog(dir); !errors.Is(err, ErrNoMagic) {
		t.Fatalf("the version 2 log opened before its upgrade: err = %v", err)
	}
	if err := legacy.Upgrade(dir, io.Discard); err != nil {
		t.Fatal(err)
	}
	l, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := AllKinds()
	if got := ReplayAll(t, l); !reflect.DeepEqual(got, want) {
		t.Fatalf("the upgraded version 2 log replays as %+v", got)
	}
	tail := []*Record{
		{Seq: 1<<62 + 2, Kind: KindAlloc, Principal: 2, Amount: 12.5, Lease: 80, Sources: []int{0, 1, 3}, Takes: []float64{10, 2, 0.5}},
		{Seq: 1<<62 + 3, Kind: KindAlloc, Principal: 1, Amount: math.Pi, Lease: 81, Sources: []int{0}, Takes: []float64{math.Pi}},
		{Seq: 1<<62 + 4, Kind: KindRelease, Lease: 80},
	}
	var appended []byte
	for _, rec := range tail {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		appended = append(appended, binaryFrame(t, rec)...)
	}
	want = append(want, tail...)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if onDisk := readFile(t, filepath.Join(dir, WALName)); !bytes.Equal(onDisk, append(readFile(t, V4Golden), appended...)) {
		t.Fatalf("WAL is not the upgraded version 2 log followed by the appended frames")
	}
	if l, err = OpenFileLog(dir); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := ReplayAll(t, l); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened, the log replays as %+v", got)
	}
	folded := &Record{Seq: 1<<62 + 5, Kind: KindState, State: want[12].State}
	if err := l.Compact(folded); err != nil {
		t.Fatal(err)
	}
	if got := ReplayAll(t, l); !reflect.DeepEqual(got, []*Record{folded}) {
		t.Fatalf("compacted directory replays as %+v", got)
	}
	for _, name := range []string{SnapshotName, WALName} {
		raw := readFile(t, filepath.Join(dir, name))
		if _, n, err := DecodeRecords(bytes.NewReader(raw)); err != nil || n != int64(len(raw)) {
			t.Errorf("%s: %d of %d bytes read in the current spelling (%v)", name, n, len(raw), err)
		}
	}
}

// legacyAndBinary builds the logs recovery has had to read: one in the
// JSON encoding (pair-form and dense takes, as the last JSON build wrote
// them), one binary as this build writes it, and a JSON log that a build
// before the file magic appended to in binary.
func legacyAndBinary(t testing.TB) (logs map[string][]byte, want []*Record) {
	recs := SampleRecords()
	recs = append(recs, &Record{Seq: 7, Kind: KindAlloc, Lease: 2, Sources: []int{1}, Takes: []float64{4}})
	dense := *recs[4]
	dense.Sources, dense.Takes = nil, []float64{30, 10}
	logs = map[string][]byte{"binary": []byte(FileMagic)}
	for i, rec := range recs {
		js := jsonFrame(t, rec)
		if i == 4 {
			js = jsonFrame(t, &dense)
		}
		logs["binary"] = append(logs["binary"], binaryFrame(t, rec)...)
		logs["json"] = append(logs["json"], js...)
		if i < 5 {
			logs["mixed"] = append(logs["mixed"], js...)
		} else {
			logs["mixed"] = append(logs["mixed"], legacyBinaryFrame(t, rec)...)
		}
	}
	return logs, recs
}

// v2ThenV3 is the log of allKinds the first binary encoding wrote with
// the same records appended by the last build before the file magic,
// sequenced after it, and the records it holds.
func v2ThenV3(t testing.TB) ([]byte, []*Record) {
	raw := readFile(t, V2Golden)
	recs := AllKinds()
	for i, rec := range AllKinds() {
		rec.Seq = 1<<62 + 2 + uint64(i)
		raw = append(raw, legacyBinaryFrame(t, rec)...)
		recs = append(recs, rec)
	}
	return raw, recs
}

// samePairs compares records with their takes normalised to pairs, the
// one difference a legacy dense record is allowed to show.
func samePairs(got, want *Record) bool {
	g, w := *got, *want
	g.Sources, g.Takes = SparseTakes(g.Sources, g.Takes)
	w.Sources, w.Takes = SparseTakes(w.Sources, w.Takes)
	return reflect.DeepEqual(&g, &w)
}

// TestLegacyAndMixedLogs: a JSON log, a JSON log with a binary tail and a
// log of the first binary encoding with a tail of the next decode to the
// records written, as the binary log does, and each reader stops cleanly
// at the last whole frame when the tail is cut or a bit in it flips. Each
// legacy log is upgraded to the log this build writes of its records.
func TestLegacyAndMixedLogs(t *testing.T) {
	logs, records := legacyAndBinary(t)
	if len(logs["binary"])*2 > len(logs["json"]) {
		t.Errorf("binary log is %d bytes, JSON %d: expected under half", len(logs["binary"]), len(logs["json"]))
	}
	wants := map[string][]*Record{}
	logs["v2 then v3"], wants["v2 then v3"] = v2ThenV3(t)
	decode := func(raw []byte) ([]*Record, int64) {
		if !bytes.HasPrefix(raw, []byte(FileMagic)) {
			return legacy.Decode(raw)
		}
		recs, n, err := DecodeRecords(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		return recs, n
	}
	for name, raw := range logs {
		want := records
		if w, ok := wants[name]; ok {
			want = w
		}
		got, n := decode(raw)
		if n != int64(len(raw)) || len(got) != len(want) {
			t.Fatalf("%s: %d records, %d of %d bytes", name, len(got), n, len(raw))
		}
		for i := range want {
			if !samePairs(got[i], want[i]) {
				t.Errorf("%s record %d:\ngot  %+v\nwant %+v", name, i, got[i], want[i])
			}
		}
		if name != "binary" {
			dir := upgradedDir(t, map[string][]byte{WALName: raw})
			if again := readFile(t, filepath.Join(dir, WALName)); !bytes.Equal(again, reencoded(t, want)) {
				t.Errorf("%s is upgraded to %d bytes that are not the log of its records", name, len(again))
			}
		}
		_, lastStart := decode(raw[:len(raw)-1])
		for cut := int(lastStart) + 1; cut < len(raw); cut++ {
			got, n := decode(raw[:cut])
			if n != lastStart || len(got) != len(want)-1 {
				t.Fatalf("%s cut at %d: %d records, %d bytes; want %d, %d", name, cut, len(got), n, len(want)-1, lastStart)
			}
		}
		for bit := int(lastStart) * 8; bit < len(raw)*8; bit += 5 {
			flipped := append([]byte(nil), raw...)
			flipped[bit/8] ^= 1 << (bit % 8)
			got, n := decode(flipped)
			if n != lastStart || len(got) != len(want)-1 {
				t.Fatalf("%s bit %d flipped: %d records, %d bytes; want %d, %d", name, bit, len(got), n, len(want)-1, lastStart)
			}
		}
	}
}

// TestMixedFileLogCompacts: a directory holding a JSON snapshot and WAL is
// upgraded, then opened, appended to and compacted by this build; every
// step replays to the same records, the upgrade writes the WAL in binary,
// and after Compact nothing on disk is JSON.
func TestMixedFileLogCompacts(t *testing.T) {
	recs := SampleRecords()
	state := &Record{Seq: 3, Kind: KindState, State: &State{Names: []string{"A", "B"}, Reported: []float64{100, 80}, Avail: []float64{100, 80}, Shares: []ShareState{{From: 1, To: 0, Fraction: 0.5}}}}
	var wal []byte
	for _, rec := range recs[3:5] {
		wal = append(wal, jsonFrame(t, rec)...)
	}
	dir := upgradedDir(t, map[string][]byte{SnapshotName: jsonFrame(t, state), WALName: wal})
	l, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := []*Record{state, recs[3], recs[4]}
	if got := ReplayAll(t, l); !reflect.DeepEqual(got, want) {
		t.Fatalf("upgraded directory replays as %+v", got)
	}
	if err := l.Append(recs[5]); err != nil {
		t.Fatal(err)
	}
	want = append(want, recs[5])
	if got := ReplayAll(t, l); !reflect.DeepEqual(got, want) {
		t.Fatalf("after a binary append the directory replays as %+v", got)
	}
	if onDisk := readFile(t, filepath.Join(dir, WALName)); !bytes.Equal(onDisk, logOf(binaryFrame(t, recs[3]), binaryFrame(t, recs[4]), binaryFrame(t, recs[5]))) {
		t.Fatalf("WAL is not the JSON records rewritten plus one binary frame")
	}
	folded := &Record{Seq: 7, Kind: KindState, State: state.State}
	if err := l.Compact(folded); err != nil {
		t.Fatal(err)
	}
	if got := ReplayAll(t, l); !reflect.DeepEqual(got, []*Record{folded}) {
		t.Fatalf("compacted directory replays as %+v", got)
	}
	for _, name := range []string{SnapshotName, WALName} {
		if raw := readFile(t, filepath.Join(dir, name)); bytes.Contains(raw, []byte(`"seq"`)) {
			t.Errorf("%s still holds JSON after Compact", name)
		}
	}
}

// TestLegacyWALRewrittenByUpgrade: a legacy WAL with a torn tail is
// refused by OpenFileLog and DumpJSON, which leave it as they found it;
// the upgrade rewrites it whole in this build's spelling — the torn tail
// dropped, every record and seq kept — and leaves no temp file, and the
// log then appends at its end.
func TestLegacyWALRewrittenByUpgrade(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, WALName)
	torn := append(readFile(t, V3Golden), legacyBinaryFrame(t, &Record{Seq: 1<<62 + 2, Kind: KindRepay})[:5]...)
	if err := os.WriteFile(walPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := DumpJSON(dir, io.Discard); !errors.Is(err, ErrNoMagic) {
		t.Errorf("DumpJSON read a legacy WAL: err = %v", err)
	}
	if _, err := OpenFileLog(dir); !errors.Is(err, ErrNoMagic) {
		t.Errorf("OpenFileLog opened a legacy WAL: err = %v", err)
	}
	if onDisk := readFile(t, walPath); !bytes.Equal(onDisk, torn) {
		t.Fatalf("refusing the legacy WAL changed it")
	}
	var report bytes.Buffer
	if err := legacy.Upgrade(dir, &report); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(report.Bytes(), []byte("5 bytes of torn or corrupt tail dropped")) {
		t.Errorf("the upgrade reported %q", report.String())
	}
	golden := readFile(t, V4Golden)
	if onDisk := readFile(t, walPath); !bytes.Equal(onDisk, golden) {
		t.Fatalf("the legacy WAL was upgraded to %d bytes, not %s", len(onDisk), V4Golden)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Errorf("the upgrade left %v beside the WAL (%v)", entries, err)
	}
	l, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := ReplayAll(t, l); !reflect.DeepEqual(got, AllKinds()) {
		t.Fatalf("the upgraded WAL replays as %+v", got)
	}
	next := &Record{Seq: 1<<62 + 2, Kind: KindRepay, ParentLease: 3}
	if err := l.Append(next); err != nil {
		t.Fatal(err)
	}
	if onDisk := readFile(t, walPath); !bytes.Equal(onDisk, append(golden, binaryFrame(t, next)...)) {
		t.Fatalf("the append did not land at the end of the upgraded WAL")
	}
}

// TestCrashMidRewrite: an upgrade a crash cut short leaves a directory the
// server refuses, and running the upgrade again completes it to the bytes
// one uninterrupted run writes — whether the crash came inside a file's
// install, leaving its temp file part-written beside the untouched legacy
// file, or between the two files, leaving the snapshot upgraded and the
// WAL not.
func TestCrashMidRewrite(t *testing.T) {
	files := map[string][]byte{
		SnapshotName: jsonFrame(t, &Record{Seq: 3, Kind: KindState, State: &State{Names: []string{"A", "B"}, Reported: []float64{100, 80}, Avail: []float64{100, 80}}}),
		WALName:      readFile(t, V2Golden),
	}
	whole := upgradedDir(t, files)
	want := map[string][]byte{}
	for name := range files {
		want[name] = readFile(t, filepath.Join(whole, name))
	}
	if !bytes.Equal(want[WALName], readFile(t, V4Golden)) {
		t.Fatalf("the uninterrupted upgrade did not write %s", V4Golden)
	}

	crashes := map[string]func(dir string){
		"inside the snapshot's install": func(dir string) {
			if err := os.WriteFile(filepath.Join(dir, "snapshot.tmp"), want[SnapshotName][:len(want[SnapshotName])/2], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"between the files": func(dir string) {
			if err := os.WriteFile(filepath.Join(dir, SnapshotName), want[SnapshotName], 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, crash := range crashes {
		dir := t.TempDir()
		for file, raw := range files {
			if err := os.WriteFile(filepath.Join(dir, file), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		crash(dir)
		if _, err := OpenFileLog(dir); !errors.Is(err, ErrNoMagic) {
			t.Fatalf("%s: the server opened the half-upgraded directory: err = %v", name, err)
		}
		if err := legacy.Upgrade(dir, io.Discard); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for file, raw := range want {
			if got := readFile(t, filepath.Join(dir, file)); !bytes.Equal(got, raw) {
				t.Errorf("%s: the rerun left %s as %d bytes, not the %d one run writes", name, file, len(got), len(raw))
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "snapshot.tmp")); !os.IsNotExist(err) {
			t.Errorf("%s: the temp file survived the rerun (%v)", name, err)
		}
	}
}
