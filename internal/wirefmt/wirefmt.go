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
// float slices are length-prefixed, and a sparse float64 vector — an
// allocation's takes, on the wire and in the log alike — is run-length
// encoded with each value's trailing zero bytes dropped when that is
// shorter (AppendTakes). Every value has exactly one accepted spelling:
// Dec refuses padded uvarints, split runs, padded values and the longer
// of a vector's two forms, and Done refuses trailing bytes, so a payload
// a decoder accepts re-encodes to the bytes it was decoded from.
package wirefmt

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
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

// AppendTakes appends a sparse float64 vector — an allocation's takes,
// vals[k] at index idx[k] — in the one spelling this package writes for
// it. Pairs no decoder would read back are refused, with dst handed back
// as it came: unequal lengths, or an index that is negative or not above
// the one before it. The layout is
//
//	uvarint(len(idx)<<1 | trimmed)
//	if trimmed: ⌈len(idx)/2⌉ bytes of nibbles, the stored length (0–8) of
//	            entry 2k in the low nibble of byte k and of entry 2k+1 in
//	            the high one; an odd count leaves the last high nibble 0
//	per run:    uvarint(gap) uvarint(run length) the run's values
//
// where gap is the distance from the end of the previous run (from index
// 0 for the first) to the start of this one. A value is its 8-byte
// little-endian IEEE 754 bits, or, in the trimmed form, those bytes
// without the trailing zero ones: the 8 − tz high-order bytes, lowest
// first, so a stored value never starts with a zero byte and +0 stores
// none. The trimmed form is written exactly when it is shorter — a
// nibble plus the stored bytes per value against 8 — so a vector has one
// spelling, and below 64 entries the flag costs no byte.
//
// A vector with every index present is one run and costs two bytes more
// than its values; an isolated entry costs its value plus a gap and a
// length byte or two, so the form shrinks with the number of entries,
// not with the highest index.
func AppendTakes(dst []byte, idx []int, vals []float64) ([]byte, error) {
	if len(idx) != len(vals) {
		return dst, fmt.Errorf("wirefmt: encode takes: %d indices for %d values", len(idx), len(vals))
	}
	stored := 0
	for k, i := range idx {
		if i < 0 || (k > 0 && i <= idx[k-1]) {
			return dst, fmt.Errorf("wirefmt: encode takes: index %d (entry %d) is negative or out of order", i, k)
		}
		stored += storedLen(math.Float64bits(vals[k]))
	}
	n := len(idx)
	trimmed := trimmedShorter(uint64(n), uint64(stored))
	if !trimmed {
		dst = binary.AppendUvarint(dst, uint64(n)<<1)
	} else {
		dst = binary.AppendUvarint(dst, uint64(n)<<1|1)
		for k := 0; k < n; k += 2 {
			b := byte(storedLen(math.Float64bits(vals[k])))
			if k+1 < n {
				b |= byte(storedLen(math.Float64bits(vals[k+1]))) << 4
			}
			dst = append(dst, b)
		}
	}
	next := 0 // one past the previous run's last index
	for k := 0; k < n; {
		end := k + 1
		for end < n && idx[end] == idx[end-1]+1 {
			end++
		}
		dst = binary.AppendUvarint(dst, uint64(idx[k]-next))
		dst = binary.AppendUvarint(dst, uint64(end-k))
		for _, x := range vals[k:end] {
			if !trimmed {
				dst = AppendFloat64(dst, x)
				continue
			}
			b := math.Float64bits(x)
			drop := 8 - storedLen(b)
			dst = binary.LittleEndian.AppendUint64(dst, b>>(8*drop))
			dst = dst[:len(dst)-drop]
		}
		next = idx[end-1] + 1
		k = end
	}
	return dst, nil
}

// storedLen is how many bytes the trimmed form keeps of a value with
// these bits: all but its trailing zero bytes.
func storedLen(b uint64) int { return 8 - bits.TrailingZeros64(b)/8 }

// trimmedShorter reports whether n values keeping stored bytes in all are
// shorter trimmed — a nibble each plus those bytes — than at 8 bytes each.
func trimmedShorter(n, stored uint64) bool { return (n+1)/2+stored < 8*n }

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

// Takes reads one vector written by AppendTakes and returns it as
// parallel slices: strictly ascending non-negative indices and their
// values (both nil when empty). The count is checked against the bytes
// that remain before anything is allocated — 8 a value in the full form;
// in the trimmed form its nibbles, and then the bytes they say are
// stored — and only the encoder's spelling is read: no empty run, no run
// past the count, no two runs that touch (they would be one run), no
// index beyond the int range, no stored length above 8, no non-zero
// filler nibble, no stored value that starts with a zero byte, and the
// trimmed form exactly when it is the shorter one.
func (d *Dec) Takes() (idx []int, vals []float64) {
	idx, vals = d.AppendTakes(nil, nil)
	if len(idx) == 0 {
		return nil, nil
	}
	return idx, vals
}

// AppendTakes is Takes appending to idx and vals, so a caller with room
// for the vector decodes it without allocating. It reads and refuses
// exactly what Takes does, and a refusal hands idx and vals back at the
// length they came with. Slices without room for the count are copied
// once, into exactly the room needed.
func (d *Dec) AppendTakes(idx []int, vals []float64) ([]int, []float64) {
	head := d.Uvarint()
	if d.err != nil {
		return idx, vals
	}
	n := head >> 1
	var lens []byte // the nibbles of the trimmed form; nil in the full one
	if head&1 == 0 {
		if n > uint64(len(d.buf))/8 {
			d.fail("takes count")
			return idx, vals
		}
	} else {
		if (n+1)/2 > uint64(len(d.buf)) {
			d.fail("takes count")
			return idx, vals
		}
		lens = d.buf[:(n+1)/2]
		stored, longest := uint64(0), uint64(0)
		for k := uint64(0); k < n; k++ {
			l := nibble(lens, k)
			stored, longest = stored+l, max(longest, l)
		}
		if longest > 8 || n&1 == 1 && lens[n/2]>>4 != 0 ||
			stored > uint64(len(d.buf)-len(lens)) || !trimmedShorter(n, stored) {
			d.fail("takes lengths")
			return idx, vals
		}
		d.buf = d.buf[len(lens):]
	}
	base := len(idx)
	idx, vals, stored := d.runs(idx, vals, n, lens)
	if d.err == nil && lens == nil && trimmedShorter(n, stored) {
		d.fail("takes form") // the trimmed spelling was the shorter one
	}
	if d.err != nil {
		return idx[:base], vals[:base]
	}
	return idx, vals
}

// nibble is entry k's nibble: its stored length in the trimmed form.
func nibble(lens []byte, k uint64) uint64 { return uint64(lens[k/2]>>(4*(k&1))) & 0xF }

// SparseFloat64s reads one sparse vector of protocol version 2, which
// the write-ahead log still holds in records written before AppendTakes:
// AppendTakes's full form with the bare count, uvarint(len), in front.
// Nothing writes it any more. Its checks are AppendTakes's run rules.
func (d *Dec) SparseFloat64s() (idx []int, vals []float64) {
	idx, vals, _ = d.runs(nil, nil, uint64(d.Count(8)), nil)
	if len(idx) == 0 {
		return nil, nil
	}
	return idx, vals
}

// runs reads the runs of n entries, appending them to idx and vals: each
// value 8 bytes when lens is nil, else as many as its nibble in lens
// says. It returns the bytes the values would keep trimmed (counted only
// in the full form). On a refusal the slices are handed back at their
// length on entry.
func (d *Dec) runs(idx []int, vals []float64, n uint64, lens []byte) ([]int, []float64, uint64) {
	if n == 0 || d.err != nil {
		return idx, vals, 0
	}
	base := len(idx)
	idx, vals = grow(idx, int(n)), grow(vals, int(n))
	next, stored := uint64(0), uint64(0) // next: one past the previous run's last index
	for got := uint64(0); got < n; got = uint64(len(idx) - base) {
		gap, run := d.Uvarint(), d.Uvarint()
		if d.err != nil {
			return idx[:base], vals[:base], 0
		}
		if run == 0 || run > n-got || (gap == 0 && got > 0) ||
			gap > math.MaxInt-next || run > math.MaxInt-(next+gap) {
			d.fail("takes run")
			return idx[:base], vals[:base], 0
		}
		start, buf := next+gap, d.buf
		for i := uint64(0); i < run; i++ {
			var b uint64
			if lens == nil {
				if len(buf) < 8 {
					d.fail("takes value")
					return idx[:base], vals[:base], 0
				}
				b, buf = binary.LittleEndian.Uint64(buf), buf[8:]
				stored += uint64(storedLen(b))
			} else {
				l := nibble(lens, got+i)
				if uint64(len(buf)) < l || l > 0 && buf[0] == 0 { // short, or padded: a zero low byte is dropped
					d.fail("takes value")
					return idx[:base], vals[:base], 0
				}
				if len(buf) >= 8 { // the bytes past the value shift out
					b = binary.LittleEndian.Uint64(buf)
				} else {
					var w [8]byte
					copy(w[:], buf)
					b = binary.LittleEndian.Uint64(w[:])
				}
				b, buf = b<<(8*(8-l)), buf[l:]
			}
			idx = append(idx, int(start+i))
			vals = append(vals, math.Float64frombits(b))
		}
		d.buf, next = buf, start+run
	}
	return idx, vals, stored
}

// grow returns s with room for n more elements, copying it into exactly
// that capacity when it has not: a decoder sizes nothing past the count it
// checked.
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make([]T, 0, len(s)+n), s...)
}

// Duration reads a zigzag-encoded time.Duration.
func (d *Dec) Duration() time.Duration { return time.Duration(d.Int()) }
