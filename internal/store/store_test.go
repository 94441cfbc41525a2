package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/wirefmt"
)

func sampleRecords() []*Record {
	return []*Record{
		{Seq: 1, Kind: KindRegister, Name: "A", Capacity: 100},
		{Seq: 2, Kind: KindRegister, Name: "B", Capacity: 80},
		{Seq: 3, Kind: KindShare, From: 1, To: 0, Fraction: 0.5, Ticket: 0},
		{Seq: 4, Kind: KindReport, Principal: 1, Available: 60},
		{Seq: 5, Kind: KindAlloc, Lease: 1, Sources: []int{0, 1}, Takes: []float64{30, 10}, Expires: 12345},
		{Seq: 6, Kind: KindRelease, Lease: 1},
	}
}

func replayAll(t *testing.T, l Log) []*Record {
	t.Helper()
	var got []*Record
	if err := l.Replay(func(r *Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

func TestMemLogRoundTrip(t *testing.T) {
	l := NewMemLog()
	want := sampleRecords()
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	got := replayAll(t, l)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	state := &Record{Seq: 6, Kind: KindState, State: &State{Names: []string{"A", "B"}}}
	if err := l.Compact(state); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, l); len(got) != 1 || got[0].Kind != KindState {
		t.Fatalf("after compact replay = %+v, want single state record", got)
	}
	if err := l.Compact(&Record{Kind: KindAlloc}); err == nil {
		t.Error("Compact accepted a non-state record")
	}
}

func TestFileLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	// Appends are written through, so Replay sees them pre-Sync.
	if got := replayAll(t, l); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(&Record{Seq: 7, Kind: KindReport}); err == nil {
		t.Error("append after Close succeeded")
	}

	// Reopen: the records persist.
	l2, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := replayAll(t, l2); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened replay mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestFileLogCompactAndTail(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecords() {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	state := &Record{Seq: 6, Kind: KindState, State: &State{
		Names:    []string{"A", "B"},
		Reported: []float64{100, 80},
		Avail:    []float64{100, 60},
	}}
	if err := l.Compact(state); err != nil {
		t.Fatal(err)
	}
	tail := &Record{Seq: 7, Kind: KindReport, Principal: 0, Available: 42}
	if err := l.Append(tail); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := replayAll(t, l2)
	if len(got) != 2 || got[0].Kind != KindState || got[1].Seq != 7 {
		t.Fatalf("replay after compact = %+v, want [state, seq 7]", got)
	}
	if got[0].State == nil || !reflect.DeepEqual(got[0].State.Avail, []float64{100, 60}) {
		t.Fatalf("state payload lost: %+v", got[0])
	}
}

// TestFileLogStaleTailSkipped models a crash between the snapshot rename
// and the WAL truncate: tail records already folded into the snapshot
// (seq <= the snapshot's) must not be replayed twice.
func TestFileLogStaleTailSkipped(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecords() {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Write the snapshot by hand, leaving the WAL untruncated — exactly
	// the torn-compaction state.
	state := &Record{Seq: 6, Kind: KindState, State: &State{Names: []string{"A", "B"}}}
	frame, err := appendFrame(nil, state)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapName), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, l)
	if len(got) != 1 || got[0].Kind != KindState {
		t.Fatalf("replay = %d records (%+v), want just the snapshot", len(got), got)
	}
	l.Close()
}

// TestFileLogTruncatedTail torn-writes the WAL at every byte boundary of
// the last frame and checks recovery stops exactly at the last intact
// record, then accepts new appends cleanly.
func TestFileLogTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName)
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	lastFrame, err := appendFrame(nil, recs[len(recs)-1])
	if err != nil {
		t.Fatal(err)
	}
	prefixLen := len(full) - len(lastFrame)

	for cut := prefixLen + 1; cut < len(full); cut += 3 {
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, walName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		tl, err := OpenFileLog(sub)
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		got := replayAll(t, tl)
		if len(got) != len(recs)-1 {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(got), len(recs)-1)
		}
		// The torn tail was truncated away; a new append must extend the
		// valid prefix, not follow garbage.
		next := &Record{Seq: 99, Kind: KindReport, Principal: 0, Available: 7}
		if err := tl.Append(next); err != nil {
			t.Fatal(err)
		}
		got = replayAll(t, tl)
		if len(got) != len(recs) || got[len(got)-1].Seq != 99 {
			t.Fatalf("cut %d: after append got %d records, last %+v", cut, len(got), got[len(got)-1])
		}
		tl.Close()
	}
}

// TestFileLogCorruptMiddle flips a payload byte mid-file: recovery keeps
// the prefix before the corrupt frame and drops everything after.
func TestFileLogCorruptMiddle(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName)
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte inside the third frame's payload.
	var off int64
	for i := 0; i < 2; i++ {
		fr, _ := appendFrame(nil, recs[i])
		off += int64(len(fr))
	}
	full[off+wirefmt.FrameHeaderSize+2] ^= 0xFF
	if err := os.WriteFile(walPath, full, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := replayAll(t, l2)
	if len(got) != 2 {
		t.Fatalf("recovered %d records past corruption, want 2", len(got))
	}
}

func TestDecodeRecordsRejectsOversizedLength(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})
	recs, n, err := DecodeRecords(&buf)
	if err != nil || len(recs) != 0 || n != 0 {
		t.Fatalf("DecodeRecords = %v, %d, %v; want clean empty stop", recs, n, err)
	}
}
