package transport

// The binary wire format (protocol version 2). It replaces gob on the
// hot path while the gob stream stays decodable for old peers:
//
// Handshake. A binary client opens with the 5-byte hello
//
//	[0x00 'G' 'R' 'M' <version>]
//
// and the server answers with the same magic and the version it accepts
// (the minimum of the client's proposal and its own maximum). A proposal
// below Version is refused by closing the connection: version 1 framed
// allocation replies as population-sized vectors, which this package no
// longer writes. The lead byte 0x00 is the discriminator: a gob stream's
// first byte is a message-length uvarint and can never be zero, so the
// server peeks one byte and routes the connection to the right codec. A
// gob peer sends no hello and is served exactly as before.
//
// Frames. After the handshake every message in both directions is one
// frame, reusing the CRC-framed record idiom of internal/store:
//
//	[4B LE payload length][4B LE CRC-32 (IEEE) of payload][payload]
//	payload = [uvarint request id][envelope bytes]
//
// The request id correlates replies with requests: a client may have
// many frames in flight on one connection and the server answers each
// frame as its handler finishes, in any order (pipelining). Envelope
// bytes are produced by the protocol package's Codec — the transport
// never interprets them.
//
// Envelope encoding primitives. Integers are minimal-length uvarints
// (zigzag for signed values), float64s are 8-byte little-endian IEEE 754
// bits, strings and slices are length-prefixed, and a sparse float64
// vector is run-length encoded (AppendSparseFloat64s). The Append*/Dec
// helpers below are shared by the protocol codec so every field is
// encoded one way — and only one way: the decoder refuses padded
// uvarints and split runs, so an accepted envelope re-encodes to the
// bytes it was decoded from.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"
)

const (
	// Version is the binary protocol version this package speaks, and the
	// only one: version 2 carries an allocation's takes as sparse runs
	// where version 1 sent one float per principal.
	Version = 2
	// frameHeaderSize is the length+CRC prefix of every frame.
	frameHeaderSize = 8
	// MaxFramePayload bounds one frame's payload; a length field beyond
	// it is treated as a corrupt or hostile stream, not an allocation
	// request.
	MaxFramePayload = 16 << 20
	// helloSize is the fixed length of the handshake hello/accept.
	helloSize = 5
)

// hsMagic is the handshake magic. The 0x00 lead byte cannot begin a gob
// stream (gob frames a positive message length first), which is what
// makes codec detection a one-byte peek.
var hsMagic = [4]byte{0x00, 'G', 'R', 'M'}

// ErrNotBinary reports that the peer did not open with the binary
// handshake magic — it is speaking gob (or garbage).
var ErrNotBinary = errors.New("transport: peer did not send the binary handshake")

// IsBinaryHello reports whether a connection whose first byte is b is
// opening the binary handshake rather than a gob stream.
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
	buf := append(fw.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	buf = binary.AppendUvarint(buf, id)
	buf, err := enc(buf)
	if err != nil {
		return err
	}
	fw.buf = buf // keep the grown buffer even on error paths below
	payload := buf[frameHeaderSize:]
	if len(payload) > MaxFramePayload {
		return fmt.Errorf("transport: frame payload %d bytes exceeds limit", len(payload))
	}
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	if _, err := fw.w.Write(buf); err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}

// FrameReader reads length+CRC framed messages, reusing one buffer. The
// payload it returns is valid only until the next ReadFrame call.
type FrameReader struct {
	r   io.Reader
	buf []byte
}

// NewFrameReader reads frames from r (wrap in a bufio.Reader first when
// r is a raw connection — the header and payload are read separately).
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r, buf: make([]byte, 256)}
}

// ReadFrame reads one frame, verifies its CRC, and splits the payload
// into the request id and the envelope bytes. io.EOF is returned
// unwrapped when the stream ends cleanly between frames.
func (fr *FrameReader) ReadFrame() (id uint64, envelope []byte, err error) {
	var header [frameHeaderSize]byte
	if _, err := io.ReadFull(fr.r, header[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("transport: read frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(header[0:4])
	if n > MaxFramePayload {
		return 0, nil, fmt.Errorf("transport: frame payload %d bytes exceeds limit", n)
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	payload := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return 0, nil, fmt.Errorf("transport: read frame payload: %w", err)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(header[4:8]) {
		return 0, nil, fmt.Errorf("transport: frame CRC mismatch")
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

// --- envelope encoding primitives ---

// AppendUvarint appends v as a uvarint.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// AppendInt appends v zigzag-encoded, so small negative values stay
// small on the wire.
func AppendInt(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64((v<<1)^(v>>63)))
}

// AppendFloat64 appends v as its 8-byte little-endian IEEE 754 bits.
func AppendFloat64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendFloat64s appends a length-prefixed float64 slice.
func AppendFloat64s(dst []byte, xs []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(xs)))
	for _, x := range xs {
		dst = AppendFloat64(dst, x)
	}
	return dst
}

// AppendSparseFloat64s appends a sparse float64 vector: vals[k] sits at
// index idx[k], and idx is strictly ascending and non-negative. The
// entries are grouped into runs of consecutive indices:
//
//	uvarint(len(idx))
//	per run: uvarint(gap) uvarint(run length) run length × 8-byte floats
//
// where gap is the distance from the end of the previous run (from index
// 0 for the first) to the start of this one. A vector with every index
// present is one run and costs two bytes more than AppendFloat64s; an
// isolated entry costs its float plus a gap and a length byte or two, so
// the form is never meaningfully worse than dense and shrinks with the
// number of entries, not with the highest index.
func AppendSparseFloat64s(dst []byte, idx []int, vals []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(idx)))
	next := 0 // one past the previous run's last index
	for k := 0; k < len(idx); {
		end := k + 1
		for end < len(idx) && idx[end] == idx[end-1]+1 {
			end++
		}
		dst = binary.AppendUvarint(dst, uint64(idx[k]-next))
		dst = binary.AppendUvarint(dst, uint64(end-k))
		for _, x := range vals[k:end] {
			dst = AppendFloat64(dst, x)
		}
		next = idx[end-1] + 1
		k = end
	}
	return dst
}

// Dec is a cursor over an envelope payload. Reads past the end or
// malformed fields latch an error and return zero values, so decoders
// can read a whole struct and check Err once at the end.
type Dec struct {
	buf []byte
	err error
}

// NewDec starts decoding data.
func NewDec(data []byte) *Dec { return &Dec{buf: data} }

func (d *Dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("transport: truncated or malformed %s field", what)
	}
}

// Err returns the first decode error, nil when all reads succeeded.
func (d *Dec) Err() error { return d.err }

// Done returns an error when decoding failed or trailing bytes remain —
// an envelope must be consumed exactly.
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("transport: %d trailing bytes after envelope", len(d.buf))
	}
	return nil
}

// Uvarint reads one uvarint. A padded encoding (a trailing zero group)
// is refused: every value has exactly one accepted spelling.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, k := binary.Uvarint(d.buf)
	if k <= 0 || (k > 1 && d.buf[k-1] == 0) {
		d.fail("uvarint")
		return 0
	}
	d.buf = d.buf[k:]
	return v
}

// Int reads one zigzag-encoded signed integer.
func (d *Dec) Int() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Float64 reads one 8-byte float.
func (d *Dec) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v
}

// String reads one length-prefixed string.
func (d *Dec) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.buf)) < n {
		d.fail("string")
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// Float64s reads one length-prefixed float64 slice (nil when empty).
func (d *Dec) Float64s() []float64 {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	if n > uint64(len(d.buf))/8 {
		d.fail("float64 slice")
		return nil
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.buf[8*i:]))
	}
	d.buf = d.buf[8*n:]
	return xs
}

// SparseFloat64s reads one sparse float64 vector written by
// AppendSparseFloat64s and returns it as parallel slices: strictly
// ascending non-negative indices and their values (both nil when empty).
// The count is checked against the bytes that remain before anything is
// allocated, and only the canonical run structure is accepted — no empty
// run, no run past the count, no two runs that touch (they would be one
// run), no index beyond the int range.
func (d *Dec) SparseFloat64s() (idx []int, vals []float64) {
	n := d.Uvarint()
	if d.err != nil || n == 0 {
		return nil, nil
	}
	if n > uint64(len(d.buf))/8 {
		d.fail("sparse float64 slice")
		return nil, nil
	}
	idx = make([]int, 0, n)
	vals = make([]float64, 0, n)
	next := uint64(0) // one past the previous run's last index
	for uint64(len(idx)) < n {
		gap, run := d.Uvarint(), d.Uvarint()
		if d.err != nil {
			return nil, nil
		}
		first := len(idx) == 0
		if run == 0 || run > n-uint64(len(idx)) || (gap == 0 && !first) ||
			gap > math.MaxInt-next || run > math.MaxInt-(next+gap) ||
			run > uint64(len(d.buf))/8 {
			d.fail("sparse float64 run")
			return nil, nil
		}
		start := next + gap
		for i := uint64(0); i < run; i++ {
			idx = append(idx, int(start+i))
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(d.buf[8*i:])))
		}
		d.buf = d.buf[8*run:]
		next = start + run
	}
	return idx, vals
}

// Duration reads a zigzag-encoded time.Duration.
func (d *Dec) Duration() time.Duration { return time.Duration(d.Int()) }
