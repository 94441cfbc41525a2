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

// On disk a log is a sequence of CRC frames, one Record each (codec.go
// has the layout). The CRC catches torn or bit-rotted frames; a short
// header or payload marks the point a crash truncated the file. Decoding
// stops at the first frame that fails any check — everything before it is
// the recovered prefix, and the file is truncated back to that point on
// open so later appends never follow garbage.
const (
	walName  = "wal.log"
	snapName = "snapshot.wal"
	tmpName  = "snapshot.tmp"
)

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
// file torn by a crash is safe to append to immediately.
func OpenFileLog(dir string) (*FileLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	// A crash between writing snapshot.tmp and renaming it leaves a tmp
	// file that was never activated; drop it.
	os.Remove(filepath.Join(dir, tmpName))
	walPath := filepath.Join(dir, walName)
	valid, _, err := scanFile(walPath, nil)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", walPath, err)
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: truncate %s to %d: %w", walPath, valid, err)
	}
	return &FileLog{dir: dir, wal: f, size: valid, open: true}, nil
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
	_, _, err := scanFile(filepath.Join(fl.dir, snapName), func(rec *Record) error {
		foldSeq = max(foldSeq, rec.Seq)
		return fn(rec)
	})
	if err != nil {
		return err
	}
	_, _, err = scanFile(filepath.Join(fl.dir, walName), func(rec *Record) error {
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
// record: the snapshot is written to a temp file, fsynced, renamed over
// the old snapshot, and only then is the WAL truncated. A crash at any
// point leaves a log that replays to the same state.
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
	tmp := filepath.Join(fl.dir, tmpName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		return fmt.Errorf("store: compact write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: compact sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: compact close: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(fl.dir, snapName)); err != nil {
		return fmt.Errorf("store: compact rename: %w", err)
	}
	// The snapshot is durable; the WAL tail it folded in can go.
	if err := fl.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: compact truncate: %w", err)
	}
	fl.size = 0
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

// DecodeRecords reads frames from r until it hits EOF or the first
// invalid frame (short header, a payload length beyond the limit or
// beyond what r holds, short payload, CRC mismatch, a payload the record
// decoder refuses, or a sequence regression). It returns the valid
// prefix's records and its byte length; corruption is a stop condition,
// never an error — recovery resumes from the last valid record. The only
// error returned is a non-EOF read failure.
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
// the valid prefix. size is how many bytes r holds, negative if unknown.
// An fn error stops the scan and is returned.
func scanFrames(r io.Reader, size int64, fn func(*Record) error) (validLen int64, err error) {
	fr := wirefmt.NewReader(bufio.NewReader(r), size)
	var lastSeq uint64
	for {
		payload, err := fr.Next()
		if err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, wirefmt.ErrCorrupt) {
				return validLen, nil
			}
			return validLen, fmt.Errorf("store: scan: %w", err)
		}
		rec, err := decodeRecord(payload)
		if err != nil || (validLen > 0 && rec.Seq <= lastSeq) {
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
		validLen += wirefmt.FrameHeaderSize + int64(len(payload))
	}
}

// scanFile runs scanFrames over the named file and also returns the
// file's size. A missing file is an empty log.
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
	return validLen, info.Size(), err
}

// DumpJSON prints every record of the log directory — the snapshot, then
// the WAL tail, whichever encoding each frame is in — to w as one JSON
// object per line. It returns an error naming the byte offset if either
// file has bytes beyond its last valid frame.
func DumpJSON(dir string, w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, name := range []string{snapName, walName} {
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
