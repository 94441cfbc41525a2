package wirefmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	// FrameHeaderSize is the length+CRC prefix of every frame.
	FrameHeaderSize = 8
	// MaxFramePayload bounds one frame's payload; a length field beyond
	// it is treated as a corrupt or hostile stream, not an allocation
	// request.
	MaxFramePayload = 16 << 20
)

// ErrCorrupt marks a frame that was read in full but cannot be what a
// writer wrote: a length beyond the limit or beyond the source, or a
// checksum that does not match. A frame the source ended inside is
// io.ErrUnexpectedEOF instead.
var ErrCorrupt = errors.New("wirefmt: corrupt frame")

// BeginFrame reserves a frame header at the end of dst. The caller
// appends the payload after it and then calls EndFrame with the offset
// the header sits at (len(dst) before this call), so a frame is built in
// the buffer it is written from and never copied.
func BeginFrame(dst []byte) []byte {
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
}

// EndFrame back-fills the header of the frame begun at buf[start] with
// the length and checksum of the payload, which is the rest of buf.
func EndFrame(buf []byte, start int) error {
	payload := buf[start+FrameHeaderSize:]
	if len(payload) > MaxFramePayload {
		return fmt.Errorf("wirefmt: frame payload %d bytes exceeds limit", len(payload))
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return nil
}

// Reader reads frames from a stream, reusing one payload buffer.
type Reader struct {
	r      io.Reader
	left   int64 // bytes the source still holds; negative when unknown
	header [FrameHeaderSize]byte
	buf    []byte
}

// NewReader reads frames from r (wrap a raw connection or file in a
// bufio.Reader first — header and payload are read separately). size is
// how many bytes r holds, so that a length field can be refused before
// anything is sized by it; pass a negative size for a stream, where only
// MaxFramePayload bounds a frame.
func NewReader(r io.Reader, size int64) *Reader {
	return &Reader{r: r, left: size}
}

// Next returns the next frame's payload, valid until the following call.
// The error is io.EOF, unwrapped, when the source ends between frames;
// it wraps io.ErrUnexpectedEOF when the source ends inside one and
// ErrCorrupt when the frame fails a check; anything else is the source's
// own read error.
func (fr *Reader) Next() ([]byte, error) {
	if _, err := io.ReadFull(fr.r, fr.header[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wirefmt: read frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(fr.header[0:4])
	if n > MaxFramePayload {
		return nil, fmt.Errorf("%w: payload %d bytes exceeds limit", ErrCorrupt, n)
	}
	if fr.left >= 0 {
		if fr.left -= FrameHeaderSize + int64(n); fr.left < 0 {
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
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(fr.header[4:8]) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	return payload, nil
}
