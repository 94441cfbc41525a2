package legacy

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

// fixtures are the checked-in log directories of every vintage before the
// file magic: the log of one record of every kind in version 2 and in
// version 3 binary, and the logs served GRMs wrote in JSON with dense
// takes, in JSON with pairs, in version 2 and in version 3 binary.
var fixtures = []string{
	"../testdata/all_kinds",
	"../testdata/all_kinds_v3",
	"../../grm/testdata/legacy_wal",
	"../../grm/testdata/json_wal",
	"../../grm/testdata/binary_v2_wal",
	"../../grm/testdata/binary_v3_wal",
}

// spelled is rec as the current writer spells it, read back through the
// store's codec, and whether that writer takes it at all.
func spelled(rec *store.Record) (*store.Record, bool) {
	m := store.NewMemLog()
	if m.Append(rec) != nil {
		return nil, false
	}
	var out *store.Record
	if err := m.Replay(func(r *store.Record) error { out = r; return nil }); err != nil || out == nil {
		return nil, false
	}
	return out, true
}

// show prints every field of rec, NaN and −0 included, so that two records
// compare equal exactly when their prints do.
func show(rec *store.Record) string {
	r := *rec
	r.State = nil
	return fmt.Sprintf("%+v %+v", r, rec.State)
}

// FuzzUpgrade feeds arbitrary bytes to the upgrader as a log directory's
// WAL, its snapshot or both, as the second argument says modulo 3. The
// upgrader must never panic. What it writes the current reader must take
// whole, and it must replay to the records the legacy reader decoded —
// the same seq, kind and fields, as the current writer spells them. A file
// already current must be left as it was; an upgrade refused for a record
// the current format cannot hold must leave every file as it was; and a
// second run must change nothing.
func FuzzUpgrade(f *testing.F) {
	for _, dir := range fixtures {
		for which, name := range []string{store.WALName, store.SnapshotName} {
			if raw, err := os.ReadFile(filepath.Join(dir, name)); err == nil {
				f.Add(raw, uint8(which))
			} else if !os.IsNotExist(err) {
				f.Fatal(err)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		names := [][]string{{store.WALName}, {store.SnapshotName}, {store.SnapshotName, store.WALName}}[which%3]
		dir := t.TempDir()
		for _, name := range names {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, _, err := store.DecodeRecords(bytes.NewReader(data))
		current := err == nil
		old, _ := Decode(data)
		read := func() [][]byte {
			var files [][]byte
			for _, name := range names {
				raw, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, raw)
			}
			return files
		}

		if err := Upgrade(dir, io.Discard); err != nil {
			writable := true
			for _, rec := range old {
				if _, ok := spelled(rec); !ok {
					writable = false
				}
			}
			if current || writable {
				t.Fatalf("upgrade refused %d bytes whose records the current format holds: %v", len(data), err)
			}
			for i, raw := range read() {
				if !bytes.Equal(raw, data) {
					t.Fatalf("the refused upgrade changed %s", names[i])
				}
			}
			return
		}
		once := read()
		for i, raw := range once {
			if current {
				if !bytes.Equal(raw, data) {
					t.Fatalf("%s was already current and was rewritten", names[i])
				}
				continue
			}
			recs, n, err := store.DecodeRecords(bytes.NewReader(raw))
			if err != nil || n != int64(len(raw)) || len(recs) != len(old) {
				t.Fatalf("%s was upgraded to %d records, %d of %d bytes read (%v); the legacy reader decoded %d",
					names[i], len(recs), n, len(raw), err, len(old))
			}
			for k, rec := range old {
				want, ok := spelled(rec)
				if !ok || want.Seq != rec.Seq || want.Kind != rec.Kind || show(recs[k]) != show(want) {
					t.Fatalf("%s record %d was upgraded to\n%s\nfrom\n%s", names[i], k, show(recs[k]), show(rec))
				}
			}
		}
		if err := Upgrade(dir, io.Discard); err != nil {
			t.Fatalf("second run: %v", err)
		}
		for i, raw := range read() {
			if !bytes.Equal(raw, once[i]) {
				t.Fatalf("the second run changed %s", names[i])
			}
		}
		if !current {
			l, err := store.OpenFileLog(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if err := l.Replay(func(*store.Record) error { return nil }); err != nil {
				t.Fatalf("the upgraded directory does not replay: %v", err)
			}
		}
	})
}
