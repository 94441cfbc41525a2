// Package wirefmt is the one binary encoding this repository writes: the
// CRC frame and the field primitives that both the GRM's network protocol
// (internal/grm/transport carries the frames, internal/grm/codec.go lays
// out the envelopes) and its write-ahead log (internal/store) are built
// from. It imports nothing of the system, so either side can use it.
//
// Frames. Every message on a connection and every record in a log file is
//
//	[4B LE payload length][4B LE CRC-32 (IEEE) of payload][payload]
//
// built in place by BeginFrame/EndFrame and read back by Reader.
//
// Fields. Integers are minimal-length uvarints (zigzag for signed values),
// float64s are 8-byte little-endian IEEE 754 bits, strings and byte and
// float slices are length-prefixed, and a sparse float64 vector is
// run-length encoded (AppendSparseFloat64s). Every value has exactly one
// accepted spelling: Dec refuses padded uvarints and split runs, and Done
// refuses trailing bytes, so a payload a decoder accepts re-encodes to
// the bytes it was decoded from.
package wirefmt

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

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

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends a length-prefixed byte slice.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
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

// Dec is a cursor over a payload. Reads past the end or malformed fields
// latch an error and return zero values, so decoders can read a whole
// struct and check Err once at the end.
type Dec struct {
	buf []byte
	err error
}

// NewDec starts decoding data.
func NewDec(data []byte) *Dec { return &Dec{buf: data} }

func (d *Dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wirefmt: truncated or malformed %s field", what)
	}
}

// Err returns the first decode error, nil when all reads succeeded.
func (d *Dec) Err() error { return d.err }

// Done returns an error when decoding failed or trailing bytes remain —
// a payload must be consumed exactly.
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("wirefmt: %d trailing bytes after payload", len(d.buf))
	}
	return nil
}

// Byte reads one byte.
func (d *Dec) Byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) == 0 {
		d.fail("byte")
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

// Bool reads one byte that must be 0 or 1.
func (d *Dec) Bool() bool {
	b := d.Byte()
	if b > 1 {
		d.fail("bool")
	}
	return b == 1
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

// Count reads a uvarint that says how many elements follow, each at
// least minSize (≥ 1) bytes long, and refuses one the remaining bytes
// cannot hold — before the caller sizes anything by it.
func (d *Dec) Count(minSize int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.buf)/minSize) {
		d.fail("count")
		return 0
	}
	return int(n)
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
	n := d.Count(1)
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// Bytes reads one length-prefixed byte slice into fresh memory (nil when
// empty).
func (d *Dec) Bytes() []byte {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	b := append([]byte(nil), d.buf[:n]...)
	d.buf = d.buf[n:]
	return b
}

// Float64s reads one length-prefixed float64 slice (nil when empty).
func (d *Dec) Float64s() []float64 {
	n := d.Count(8)
	if n == 0 {
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
	n := uint64(d.Count(8))
	if n == 0 {
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
