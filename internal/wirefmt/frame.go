package wirefmt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	// MaxFramePayload bounds one frame's payload; a length field beyond
	// it is treated as a corrupt or hostile stream, not an allocation
	// request.
	MaxFramePayload = 16 << 20
	// MaxFrameHeader is the longest header a frame can have, and what
	// BeginFrame reserves: the uvarint of MaxFramePayload (4 bytes) and
	// the CRC.
	MaxFrameHeader = 8

	// maxLengthBytes is the length of the uvarint of MaxFramePayload.
	maxLengthBytes = MaxFrameHeader - crcSize
	crcSize        = 4
)

// ErrCorrupt marks a frame that was read in full but cannot be what a
// writer wrote: a padded length, a length beyond the limit or beyond the
// source, or a checksum that does not match. A frame the source ended
// inside is io.ErrUnexpectedEOF instead.
var ErrCorrupt = errors.New("wirefmt: corrupt frame")

// BeginFrame reserves room for a frame header at the end of dst. The
// caller appends the payload after it and then calls EndFrame with the
// offset the reservation sits at (len(dst) before this call), so a frame
// is built in the buffer it is written from and never copied out.
func BeginFrame(dst []byte) []byte {
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
}

// EndFrame completes the frame begun at buf[start]: the payload is the
// rest of buf. It writes the header the payload needs at start, slides
// the payload down against it (by the at most 3 bytes of the reservation
// the header left unused) and returns buf cut at the frame's end, so
// frames ended one after another in one buffer lie back to back.
func EndFrame(buf []byte, start int) ([]byte, error) {
	payload := buf[start+MaxFrameHeader:]
	if len(payload) > MaxFramePayload {
		return nil, fmt.Errorf("wirefmt: frame payload %d bytes exceeds limit", len(payload))
	}
	var hdr [MaxFrameHeader]byte
	h := binary.PutUvarint(hdr[:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[h:], crc32.ChecksumIEEE(payload))
	h += crcSize
	end := start + h + copy(buf[start+h:], payload)
	copy(buf[start:], hdr[:h])
	return buf[:end], nil
}

// Reader reads frames from a stream, reusing one payload buffer.
type Reader struct {
	r    byteReader
	left int64 // bytes the source still holds; negative when unknown
	off  int64 // bytes of the whole frames Next has returned
	sum  [crcSize]byte
	buf  []byte
}

// NewReader reads frames from r. The length is read a byte at a time,
// so r should be a bufio.Reader (or another io.ByteReader); any other r
// is wrapped in one. size is how many bytes r holds, so that a length
// field can be refused before anything is sized by it; pass a negative
// size for a stream, where only MaxFramePayload bounds a frame.
func NewReader(r io.Reader, size int64) *Reader {
	br, ok := r.(byteReader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &Reader{r: br, left: size}
}

type byteReader interface {
	io.Reader
	io.ByteReader
}

// Offset returns how many bytes the frames Next has returned span,
// headers included.
func (fr *Reader) Offset() int64 { return fr.off }

// Next returns the next frame's payload, valid until the following call.
// The error is io.EOF, unwrapped, when the source ends between frames;
// it wraps io.ErrUnexpectedEOF when the source ends inside one and
// ErrCorrupt when the frame fails a check; anything else is the source's
// own read error.
func (fr *Reader) Next() ([]byte, error) {
	n, h, crc, err := fr.readHeader()
	if err != nil {
		return nil, err
	}
	return fr.ReadPayload(n, h, crc)
}

// ReadPayload reads the payload of a frame whose header the caller has
// already read from the Reader's source (one NewReader reads directly, an
// io.ByteReader): h bytes stating a payload of n bytes and its CRC-32. It
// makes Next's checks on it — the limit, the bytes the source holds, the
// CRC — and reports them as Next does, so a reader of another header
// spelling (the fixed 8-byte header of the write-ahead logs written before
// the file magic) shares them.
func (fr *Reader) ReadPayload(n uint64, h int, crc uint32) ([]byte, error) {
	if n > MaxFramePayload {
		return nil, fmt.Errorf("%w: payload %d bytes exceeds limit", ErrCorrupt, n)
	}
	if fr.left >= 0 {
		if fr.left -= int64(h) + int64(n); fr.left < 0 {
			return nil, fmt.Errorf("%w: payload %d bytes runs past the end of the source", ErrCorrupt, n)
		}
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	payload := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("wirefmt: read frame payload: %w", err)
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	fr.off += int64(h) + int64(n)
	return payload, nil
}

// readHeader reads one frame header and returns the payload length and
// CRC it states and the header's size. The uvarint length is refused as
// soon as it runs past MaxFramePayload or its fourth byte, and when it is
// padded: only the shortest spelling of a length is a header.
func (fr *Reader) readHeader() (n uint64, h int, crc uint32, err error) {
	for h < maxLengthBytes {
		b, err := fr.r.ReadByte()
		if err != nil {
			if err == io.EOF {
				if h == 0 {
					return 0, 0, 0, io.EOF
				}
				err = io.ErrUnexpectedEOF
			}
			return 0, 0, 0, fmt.Errorf("wirefmt: read frame header: %w", err)
		}
		n |= uint64(b&0x7f) << (7 * h)
		h++
		if n > MaxFramePayload {
			return 0, 0, 0, fmt.Errorf("%w: payload length exceeds limit", ErrCorrupt)
		}
		if b < 0x80 {
			if b == 0 && h > 1 {
				return 0, 0, 0, fmt.Errorf("%w: padded payload length", ErrCorrupt)
			}
			if _, err := io.ReadFull(fr.r, fr.sum[:]); err != nil {
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return 0, 0, 0, fmt.Errorf("wirefmt: read frame header: %w", err)
			}
			return n, h + crcSize, binary.LittleEndian.Uint32(fr.sum[:]), nil
		}
	}
	return 0, 0, 0, fmt.Errorf("%w: payload length runs past %d bytes", ErrCorrupt, maxLengthBytes)
}
