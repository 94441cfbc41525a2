package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
)

// vintages are the checked-in log directories of every format before the
// file magic, and the current golden log.
var (
	vintages = []string{
		"../../internal/store/testdata/all_kinds",
		"../../internal/store/testdata/all_kinds_v3",
		"../../internal/grm/testdata/legacy_wal",
		"../../internal/grm/testdata/json_wal",
		"../../internal/grm/testdata/binary_v2_wal",
		"../../internal/grm/testdata/binary_v3_wal",
	}
	current = "../../internal/store/testdata/all_kinds_v4"
)

// copyDir copies the log files of src into a new directory and returns it
// with the files' bytes.
func copyDir(t *testing.T, src string) (string, map[string][]byte) {
	t.Helper()
	dir, files := t.TempDir(), map[string][]byte{}
	for _, name := range []string{store.WALName, store.SnapshotName} {
		raw, err := os.ReadFile(filepath.Join(src, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		files[name] = raw
	}
	return dir, files
}

// unchanged fails t unless dir holds exactly files.
func unchanged(t *testing.T, what, dir string, files map[string][]byte) {
	t.Helper()
	for name, want := range files {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s changed %s (%v)", what, name, err)
		}
	}
}

// upgrade runs the command on dirs and fails t unless it exits 0.
func upgrade(t *testing.T, dirs ...string) string {
	t.Helper()
	var out, errs bytes.Buffer
	if code := run(dirs, &out, &errs); code != 0 {
		t.Fatalf("walupgrade %v exited %d: %s", dirs, code, errs.String())
	}
	return out.String()
}

// TestEveryVintageRefusedUntilUpgraded: the server refuses a log directory
// of every vintage before the magic — at OpenFileLog when its WAL is
// legacy, at Replay when only its snapshot is (as a build that wrote the
// magic but never compacted leaves it) — with an error naming walupgrade
// and the directory, and both files are byte-identical afterwards. Once
// upgraded, the directory opens and replays.
func TestEveryVintageRefusedUntilUpgraded(t *testing.T) {
	dirs, files := map[string]string{}, map[string]map[string][]byte{}
	for _, src := range vintages {
		dirs[src], files[src] = copyDir(t, src)
	}
	mixed := "a current WAL beside a legacy snapshot"
	dirs[mixed], files[mixed] = copyDir(t, "../../internal/grm/testdata/json_wal")
	currentWAL, err := os.ReadFile(filepath.Join(current, store.WALName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dirs[mixed], store.WALName), currentWAL, 0o644); err != nil {
		t.Fatal(err)
	}
	files[mixed][store.WALName] = currentWAL

	for what, dir := range dirs {
		l, err := store.OpenFileLog(dir)
		if err == nil {
			err = l.Replay(func(*store.Record) error { return nil })
			l.Close()
		}
		if !errors.Is(err, store.ErrNoMagic) || !strings.Contains(err.Error(), "walupgrade "+dir) {
			t.Errorf("%s: err = %v, want ErrNoMagic naming walupgrade %s", what, err, dir)
		}
		if err := store.DumpJSON(dir, io.Discard); !errors.Is(err, store.ErrNoMagic) {
			t.Errorf("%s: DumpJSON err = %v, want ErrNoMagic", what, err)
		}
		unchanged(t, what+": refusing the directory", dir, files[what])

		upgrade(t, dir)
		if l, err = store.OpenFileLog(dir); err != nil {
			t.Fatalf("%s upgraded: %v", what, err)
		}
		n := 0
		if err := l.Replay(func(*store.Record) error { n++; return nil }); err != nil || n == 0 {
			t.Errorf("%s upgraded replays %d records (%v)", what, n, err)
		}
		l.Close()
	}
}

// TestUpgradeTwiceIsOnce: a second run over an upgraded directory of any
// vintage exits 0 and leaves every byte as the first run wrote it, and a
// run over a directory already current changes nothing at all.
func TestUpgradeTwiceIsOnce(t *testing.T) {
	for _, src := range append(vintages, current) {
		dir, files := copyDir(t, src)
		out := upgrade(t, dir)
		if src == current {
			unchanged(t, "upgrading a current directory", dir, files)
		} else if strings.Contains(out, "already") {
			t.Errorf("%s: the first run says %q", src, out)
		}
		once := map[string][]byte{}
		for name := range files {
			raw, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			once[name] = raw
		}
		if out := upgrade(t, dir); strings.Count(out, "already in the current format") != len(files) {
			t.Errorf("%s: the second run says %q", src, out)
		}
		unchanged(t, src+": the second run", dir, once)
	}
}

// TestUsageAndRefusals: no directory is a usage error, and a directory
// with no log in it — the root of a sharded -wal-dir — is refused with a
// pointer to its shard directories.
func TestUsageAndRefusals(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run(nil, &out, &errs); code != 2 || !strings.Contains(errs.String(), "usage") {
		t.Errorf("no arguments: exit %d, %q", code, errs.String())
	}
	errs.Reset()
	sharded := t.TempDir()
	if err := os.Mkdir(filepath.Join(sharded, "shard0"), 0o755); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{sharded}, &out, &errs); code != 1 || !strings.Contains(errs.String(), "shard<i>/") {
		t.Errorf("a sharded root: exit %d, %q", code, errs.String())
	}
}
