package transport

// The wire format (protocol version 4), the only one served:
//
// Handshake. A client opens with the 5-byte hello
//
//	[0x00 'G' 'R' 'M' <version>]
//
// and the server answers with the same magic and the version it accepts
// (the minimum of the client's proposal and its own maximum). A proposal
// below Version is refused by closing the connection: version 1 framed
// allocation replies as population-sized vectors, version 2 spelled every
// take in 8 bytes and version 3 gave every frame a 4-byte length and every
// reply an error string and code, none of which this package writes any
// more. A connection that does not open with the lead byte 0x00 is
// refused the same way after one peeked byte — that is what the gob
// stream this protocol replaced looks like (its first byte is a
// message-length uvarint and can never be zero), and a reply whose
// meaning depends on the vintage of the peer's decoder is not served.
//
// Frames. After the handshake every message in both directions is one
// CRC frame of internal/wirefmt — the layout the write-ahead log of
// internal/store shares — whose payload leads with a request id:
//
//	[uvarint payload length][4B LE CRC-32 (IEEE) of payload][payload]
//	payload = [uvarint request id][envelope bytes]
//
// The request id correlates replies with requests: a client may have
// many frames in flight on one connection and the server answers each
// frame as its handler finishes, in any order (pipelining). Envelope
// bytes are produced by the protocol package's Codec from the field
// primitives of internal/wirefmt — the transport never interprets them.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/wirefmt"
)

const (
	// Version is the binary protocol version this package speaks, and the
	// only one: version 4 spells a frame's length as a uvarint and opens a
	// reply with one uvarint of its kind and outcome; version 3 framed
	// with a fixed 4-byte length and gave every reply an error string and
	// code, version 2 sent an allocation's takes as sparse runs of 8-byte
	// floats and version 1 one float per principal.
	Version = 4
	// MaxFramePayload bounds one frame's payload (wirefmt.MaxFramePayload).
	MaxFramePayload = wirefmt.MaxFramePayload
	// helloSize is the fixed length of the handshake hello/accept.
	helloSize = 5
)

// hsMagic is the handshake magic. The 0x00 lead byte cannot begin a
// legacy gob stream (gob frames a positive message length first), which
// is what makes refusing one a one-byte peek.
var hsMagic = [4]byte{0x00, 'G', 'R', 'M'}

// ErrNotBinary reports that the peer did not open (or answer) with the
// handshake magic — it is a gob peer from before the binary protocol,
// or garbage.
var ErrNotBinary = errors.New("transport: peer did not send the binary handshake")

// IsBinaryHello reports whether a connection whose first byte is b is
// opening the handshake.
func IsBinaryHello(b byte) bool { return b == hsMagic[0] }

// WriteHello sends one handshake message (client hello or server
// accept) proposing or confirming the given protocol version.
func WriteHello(w io.Writer, version byte) error {
	var msg [helloSize]byte
	copy(msg[:], hsMagic[:])
	msg[4] = version
	if _, err := w.Write(msg[:]); err != nil {
		return fmt.Errorf("transport: write handshake: %w", err)
	}
	return nil
}

// ReadHello consumes one handshake message and returns the version the
// peer proposed or accepted. A stream that does not start with the
// binary magic returns ErrNotBinary.
func ReadHello(r io.Reader) (byte, error) {
	var msg [helloSize]byte
	if _, err := io.ReadFull(r, msg[:]); err != nil {
		return 0, fmt.Errorf("transport: read handshake: %w", err)
	}
	if [4]byte(msg[:4]) != hsMagic {
		return 0, ErrNotBinary
	}
	if msg[4] == 0 {
		return 0, fmt.Errorf("transport: handshake proposed version 0")
	}
	return msg[4], nil
}

// NegotiateVersion picks the version a server speaks with a client that
// proposed the given one: the highest version both sides know. ok is
// false when there is none — the client speaks only versions this
// package dropped.
func NegotiateVersion(proposed byte) (version byte, ok bool) {
	return Version, proposed >= Version
}

// FrameWriter writes length+CRC framed messages, reusing one buffer
// across frames. Not safe for concurrent use: callers serialize writes
// (the server's per-connection writer goroutine, the client's write
// mutex).
type FrameWriter struct {
	w   io.Writer
	buf []byte
}

// NewFrameWriter frames messages onto w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: w, buf: make([]byte, 0, 256)}
}

// WriteFrame emits one frame whose payload is the request id followed
// by the envelope bytes produced by enc, which must append to the slice
// it is given and return the result.
func (fw *FrameWriter) WriteFrame(id uint64, enc func([]byte) ([]byte, error)) error {
	buf := binary.AppendUvarint(wirefmt.BeginFrame(fw.buf[:0]), id)
	buf, err := enc(buf)
	if err != nil {
		return err
	}
	fw.buf = buf // keep the grown buffer even on error paths below
	frame, err := wirefmt.EndFrame(buf, 0)
	if err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	if _, err := fw.w.Write(frame); err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}

// FrameReader reads length+CRC framed messages, reusing one buffer. The
// payload it returns is valid only until the next ReadFrame call.
type FrameReader struct {
	fr *wirefmt.Reader
}

// NewFrameReader reads frames from r (wrap in a bufio.Reader first when
// r is a raw connection — the length is read a byte at a time).
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{fr: wirefmt.NewReader(r, -1)}
}

// ReadFrame reads one frame, verifies its CRC, and splits the payload
// into the request id and the envelope bytes. io.EOF is returned
// unwrapped when the stream ends cleanly between frames.
func (fr *FrameReader) ReadFrame() (id uint64, envelope []byte, err error) {
	payload, err := fr.fr.Next()
	if err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("transport: %w", err)
	}
	id, k := binary.Uvarint(payload)
	if k <= 0 {
		return 0, nil, fmt.Errorf("transport: frame missing request id")
	}
	return id, payload[k:], nil
}

// Codec translates between protocol envelopes and binary payload bytes.
// The transport stays protocol-agnostic: the request/response types are
// the same `any` values the Handler sees, and the protocol package owns
// their field layout.
type Codec interface {
	// DecodeRequest parses one request envelope from a frame payload.
	DecodeRequest(data []byte) (any, error)
	// AppendResponse appends one response envelope to dst.
	AppendResponse(dst []byte, resp any) ([]byte, error)
}
