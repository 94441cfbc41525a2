package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/wirefmt"
)

// On disk a log is the file magic and then a sequence of CRC frames, one
// Record each (codec.go has the layout). The CRC catches torn or
// bit-rotted frames; a short header or payload marks the point a crash
// truncated the file. Decoding stops at the first frame that fails any
// check — everything before it is the recovered prefix, and the file is
// truncated back to that point on open so later appends never follow
// garbage. A file that does not open with the magic is refused with
// ErrNoMagic wherever it is read; the server never rewrites a log it did
// not write.
const (
	// WALName and SnapshotName are the two files of a log directory.
	WALName      = "wal.log"
	SnapshotName = "snapshot.wal"
	// tmpName is the temp file install writes a file through.
	tmpName = "snapshot.tmp"
)

// ErrNoMagic marks a log file that holds bytes but does not open with the
// file magic: one written before the magic, which cmd/walupgrade rewrites
// in this format, or not a log at all. An empty file, or one holding a
// torn prefix of the magic, is a new log instead.
var ErrNoMagic = errors.New("store: file does not open with the " + fileMagic + " magic")

// walFile is what FileLog needs of its WAL file; *os.File in production,
// a failing wrapper in the tests of the write-error path.
type walFile interface {
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
}

// FileLog is a file-backed Log: an append-only WAL file plus a
// compacted snapshot file, both under one directory. Every Append is
// written through to the OS (one write syscall — it survives a killed
// process, which is the crash recovery defends against); Sync fsyncs
// for power-loss durability (the GRM syncs on shutdown and after
// compaction, trading per-record fsync latency for the paper's
// soft-state tolerance — LRM reports refresh availability anyway).
type FileLog struct {
	dir string

	mu   sync.Mutex
	wal  walFile
	size int64  // bytes of whole frames in the WAL; the next frame goes here
	buf  []byte // the frame being appended, reused from one Append to the next
	open bool
}

// OpenFileLog opens (creating if needed) the log directory. The WAL
// tail is scanned and truncated back to its last valid record, so a
// file torn by a crash is safe to append to immediately. A WAL without
// the file magic is refused (ErrNoMagic), and so, by Replay, is such a
// snapshot.
func OpenFileLog(dir string) (*FileLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	// A crash between writing the temp file and renaming it leaves a file
	// that was never activated; drop it.
	os.Remove(filepath.Join(dir, tmpName))
	walPath := filepath.Join(dir, WALName)
	valid, _, err := scanFile(walPath, nil)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", walPath, err)
	}
	if valid < int64(len(fileMagic)) { // new, or only a torn magic in it
		if _, err := f.WriteAt([]byte(fileMagic), 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: open %s: %w", walPath, err)
		}
		valid = int64(len(fileMagic))
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: truncate %s to %d: %w", walPath, valid, err)
	}
	return &FileLog{dir: dir, wal: f, size: valid, open: true}, nil
}

// WriteFile installs recs as the file name of the log directory dir, in
// this format, through install: the whole file or, after a crash, the
// one it replaces. It is how cmd/walupgrade writes what it read in an
// older format, records and their seq unchanged.
func WriteFile(dir, name string, recs []*Record) error {
	err := install(dir, name, func(w io.Writer) error {
		var buf []byte
		for _, rec := range recs {
			var err error
			if buf, err = appendFrame(buf[:0], rec); err != nil {
				return fmt.Errorf("seq %d: %w", rec.Seq, err)
			}
			if _, err = w.Write(buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: write %s: %w", filepath.Join(dir, name), err)
	}
	return nil
}

// syncDir fsyncs the directory dir, so that a rename in it survives power
// loss; a variable so that a test can see when it runs.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() // opened only to be synced
	return d.Sync()
}

// install writes the file name of dir through the temp file: the magic
// and what write adds go to the temp file, which is fsynced and renamed
// over name, and then the directory is fsynced, so a crash at any point
// leaves either file whole and, once install returns, the new one stays.
func install(dir, name string, write func(io.Writer) error) error {
	tmpPath := filepath.Join(dir, tmpName)
	f, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString(fileMagic)
	if err = write(w); err == nil {
		err = w.Flush()
	}
	if err != nil {
		f.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("write %s: %w", tmpName, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("sync %s: %w", tmpName, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpPath, filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("rename %s: %w", tmpName, err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("sync %s: %w", dir, err)
	}
	return nil
}

// Dir returns the log directory.
func (fl *FileLog) Dir() string { return fl.dir }

// Append encodes rec as one frame in the log's own buffer and writes it
// at the WAL tail with a single write, through to the OS, so a killed
// process loses nothing; call Sync to force it to stable storage. A
// failed or short write leaves the log as it was before the call: the
// torn bytes are cut off again and the next Append starts at the same
// frame boundary.
func (fl *FileLog) Append(rec *Record) error {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if !fl.open {
		return fmt.Errorf("store: append to closed log")
	}
	buf, err := appendFrame(fl.buf[:0], rec)
	if err != nil {
		return err
	}
	fl.buf = buf
	if _, err := fl.wal.WriteAt(buf, fl.size); err != nil {
		// Best effort: if the cut fails too, the next frame still lands at
		// fl.size and whatever outlives it fails its CRC on the next scan.
		_ = fl.wal.Truncate(fl.size)
		return fmt.Errorf("store: append: %w", err)
	}
	fl.size += int64(len(buf))
	return nil
}

// Replay feeds fn the snapshot's state record (if present) followed by
// every tail record newer than the snapshot's fold point, each as it is
// decoded.
func (fl *FileLog) Replay(fn func(*Record) error) error {
	var foldSeq uint64
	_, _, err := scanFile(filepath.Join(fl.dir, SnapshotName), func(rec *Record) error {
		foldSeq = max(foldSeq, rec.Seq)
		return fn(rec)
	})
	if err != nil {
		return err
	}
	_, _, err = scanFile(filepath.Join(fl.dir, WALName), func(rec *Record) error {
		if rec.Seq <= foldSeq {
			// Already folded into the snapshot: a crash between the
			// snapshot rename and the WAL truncate leaves such records.
			return nil
		}
		return fn(rec)
	})
	return err
}

// Compact atomically replaces the log's contents with the single state
// record: the snapshot is installed (written to a temp file, fsynced,
// renamed over the old snapshot, the directory fsynced), and only then is
// the WAL truncated back to its magic. A crash or power loss at any point
// leaves a log that replays to the same state.
func (fl *FileLog) Compact(state *Record) error {
	if state.Kind != KindState {
		return fmt.Errorf("store: Compact with %v record, want state", state.Kind)
	}
	frame, err := appendFrame(nil, state)
	if err != nil {
		return err
	}
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if !fl.open {
		return fmt.Errorf("store: compact closed log")
	}
	if err := install(fl.dir, SnapshotName, func(w io.Writer) error {
		_, err := w.Write(frame)
		return err
	}); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	// The snapshot is durable; the WAL tail it folded in can go.
	magic := int64(len(fileMagic))
	if err := fl.wal.Truncate(magic); err != nil {
		return fmt.Errorf("store: compact truncate: %w", err)
	}
	fl.size = magic
	return nil
}

// Sync fsyncs the WAL.
func (fl *FileLog) Sync() error {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if !fl.open {
		return nil
	}
	if err := fl.wal.Sync(); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	return nil
}

// Close syncs and closes the WAL file. Further appends fail.
func (fl *FileLog) Close() error {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if !fl.open {
		return nil
	}
	fl.open = false
	syncErr := fl.wal.Sync()
	closeErr := fl.wal.Close()
	if syncErr != nil {
		return fmt.Errorf("store: close sync: %w", syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("store: close: %w", closeErr)
	}
	return nil
}

// DecodeRecords reads the log file r holds until it hits EOF or the first
// invalid frame (short header, a padded length, a payload length beyond
// the limit or beyond what r holds, short payload, CRC mismatch, a
// payload the record decoder refuses, or a sequence regression). It
// returns the valid prefix's records and its byte length; corruption is a
// stop condition, never an error — recovery resumes from the last valid
// record. The errors returned are ErrNoMagic, for bytes that do not open
// with the file magic, and a non-EOF read failure.
func DecodeRecords(r io.Reader) (recs []*Record, validLen int64, err error) {
	size := int64(-1)
	if sized, ok := r.(interface{ Len() int }); ok { // bytes.Reader, bytes.Buffer
		size = int64(sized.Len())
	}
	validLen, err = scanFrames(r, size, func(rec *Record) error {
		recs = append(recs, rec)
		return nil
	})
	return recs, validLen, err
}

// scanFrames is DecodeRecords' loop: it hands each valid record to fn as
// it is decoded (a nil fn only validates) and returns the byte length of
// the valid prefix, the file magic included. size is how many bytes r
// holds, negative if unknown. An fn error stops the scan and is returned.
func scanFrames(r io.Reader, size int64, fn func(*Record) error) (validLen int64, err error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(fileMagic))
	if err != nil && err != io.EOF {
		return 0, fmt.Errorf("store: scan: %w", err)
	}
	if string(head) != fileMagic[:len(head)] {
		return 0, ErrNoMagic
	}
	if len(head) < len(fileMagic) { // empty, or the magic torn: a new log
		return 0, nil
	}
	br.Discard(len(fileMagic))
	validLen = int64(len(fileMagic))
	if size >= 0 {
		size -= validLen
	}
	fr := wirefmt.NewReader(br, size)
	var lastSeq uint64
	for {
		payload, err := fr.Next()
		if err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, wirefmt.ErrCorrupt) {
				return validLen, nil
			}
			return validLen, fmt.Errorf("store: scan: %w", err)
		}
		rec, err := DecodeRecord(payload)
		if err != nil || (validLen > int64(len(fileMagic)) && rec.Seq <= lastSeq) {
			// A sequence regression means the tail predates the prefix
			// (e.g. a recycled file); stop at the consistent prefix.
			return validLen, nil
		}
		lastSeq = rec.Seq
		if fn != nil {
			if err := fn(rec); err != nil {
				return validLen, err
			}
		}
		validLen = int64(len(fileMagic)) + fr.Offset()
	}
}

// scanFile runs scanFrames over the named file and also returns the
// file's size. A missing file is an empty log; a file without the magic
// is refused with an error naming its directory and the upgrade command.
func scanFile(path string, fn func(*Record) error) (validLen, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil
		}
		return 0, 0, fmt.Errorf("store: open %s: %w", path, err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("store: stat %s: %w", path, err)
	}
	validLen, err = scanFrames(f, info.Size(), fn)
	if errors.Is(err, ErrNoMagic) {
		dir := filepath.Dir(path)
		return 0, info.Size(), fmt.Errorf("%w: %s (a log an older build wrote needs one walupgrade %s run before it is opened)", err, path, dir)
	}
	return validLen, info.Size(), err
}

// DumpJSON prints every record of the log directory — the snapshot, then
// the WAL tail — to w as one JSON object per line. It returns an error
// naming the byte offset if either file has bytes beyond its last valid
// frame, and refuses a file without the magic as Replay does.
func DumpJSON(dir string, w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, name := range []string{SnapshotName, WALName} {
		path := filepath.Join(dir, name)
		valid, size, err := scanFile(path, func(rec *Record) error {
			if err := enc.Encode(rec); err != nil {
				return fmt.Errorf("store: dump seq %d (%v): %w", rec.Seq, rec.Kind, err)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if valid < size {
			return fmt.Errorf("store: %s: torn or corrupt at byte offset %d of %d", path, valid, size)
		}
	}
	return nil
}
