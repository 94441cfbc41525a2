package transport_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/grm/transport"
	"repro/internal/wirefmt"
)

func TestHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := transport.WriteHello(&buf, transport.Version); err != nil {
		t.Fatal(err)
	}
	if !transport.IsBinaryHello(buf.Bytes()[0]) {
		t.Error("hello lead byte not recognized as binary")
	}
	v, err := transport.ReadHello(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v != transport.Version {
		t.Errorf("version = %d, want %d", v, transport.Version)
	}
}

func TestReadHelloRejectsGobAndGarbage(t *testing.T) {
	// A gob stream opens with a positive message-length uvarint — never
	// 0x00 — so it must be classified as not-binary.
	gobish := []byte{0x2c, 0xff, 0x81, 0x03, 0x01}
	if transport.IsBinaryHello(gobish[0]) {
		t.Error("gob lead byte classified as binary hello")
	}
	if _, err := transport.ReadHello(bytes.NewReader(gobish)); !errors.Is(err, transport.ErrNotBinary) {
		t.Errorf("gob-like stream: err = %v, want ErrNotBinary", err)
	}
	// Right magic, version 0: malformed.
	if _, err := transport.ReadHello(bytes.NewReader([]byte{0x00, 'G', 'R', 'M', 0x00})); err == nil {
		t.Error("version 0 accepted")
	}
	// Truncated hello.
	if _, err := transport.ReadHello(bytes.NewReader([]byte{0x00, 'G'})); err == nil {
		t.Error("truncated hello accepted")
	}
}

func TestNegotiateVersion(t *testing.T) {
	if got, ok := transport.NegotiateVersion(transport.Version); !ok || got != transport.Version {
		t.Errorf("same version negotiates to %d, %v", got, ok)
	}
	if got, ok := transport.NegotiateVersion(200); !ok || got != transport.Version {
		t.Errorf("future version negotiates to %d, %v, want %d", got, ok, transport.Version)
	}
	if _, ok := transport.NegotiateVersion(transport.Version - 1); ok {
		t.Errorf("version %d accepted; its allocation replies are no longer written", transport.Version-1)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := transport.NewFrameWriter(&buf)
	payloads := map[uint64][]byte{
		1:       []byte("hello"),
		7:       {},
		1 << 40: []byte("wide id"),
	}
	for id, p := range payloads {
		p := p
		err := fw.WriteFrame(id, func(dst []byte) ([]byte, error) { return append(dst, p...), nil })
		if err != nil {
			t.Fatal(err)
		}
	}
	fr := transport.NewFrameReader(&buf)
	seen := 0
	for {
		id, envelope, err := fr.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		want, ok := payloads[id]
		if !ok {
			t.Fatalf("unexpected frame id %d", id)
		}
		if !bytes.Equal(envelope, want) {
			t.Errorf("frame %d payload = %q, want %q", id, envelope, want)
		}
		seen++
	}
	if seen != len(payloads) {
		t.Errorf("read %d frames, want %d", seen, len(payloads))
	}
}

func TestFrameCRCMismatch(t *testing.T) {
	var buf bytes.Buffer
	fw := transport.NewFrameWriter(&buf)
	if err := fw.WriteFrame(1, func(dst []byte) ([]byte, error) { return append(dst, "payload"...), nil }); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xff // flip a payload bit
	_, _, err := transport.NewFrameReader(bytes.NewReader(raw)).ReadFrame()
	if err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Errorf("corrupted frame: err = %v, want CRC mismatch", err)
	}
}

func TestFrameRejectsOversizedLength(t *testing.T) {
	header := append(binary.AppendUvarint(nil, transport.MaxFramePayload+1), 0, 0, 0, 0)
	_, _, err := transport.NewFrameReader(bytes.NewReader(header)).ReadFrame()
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("oversized frame: err = %v", err)
	}
}

func TestFrameTruncatedMidPayload(t *testing.T) {
	var buf bytes.Buffer
	fw := transport.NewFrameWriter(&buf)
	if err := fw.WriteFrame(3, func(dst []byte) ([]byte, error) { return append(dst, "truncate me"...), nil }); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-4]
	_, _, err := transport.NewFrameReader(bytes.NewReader(raw)).ReadFrame()
	if err == nil || errors.Is(err, io.EOF) {
		t.Errorf("truncated frame: err = %v, want non-EOF error", err)
	}
}

func TestDecRoundTrip(t *testing.T) {
	var dst []byte
	dst = wirefmt.AppendUvarint(dst, 0)
	dst = wirefmt.AppendUvarint(dst, 1<<60)
	dst = wirefmt.AppendInt(dst, -1)
	dst = wirefmt.AppendInt(dst, math.MinInt64)
	dst = wirefmt.AppendInt(dst, math.MaxInt64)
	dst = wirefmt.AppendFloat64(dst, -0.125)
	dst = wirefmt.AppendFloat64(dst, math.Inf(1))
	dst = wirefmt.AppendString(dst, "")
	dst = wirefmt.AppendString(dst, "nonempty ∞ string")
	dst = wirefmt.AppendFloat64s(dst, nil)
	dst = wirefmt.AppendFloat64s(dst, []float64{1, -2.5, 0})
	dst = wirefmt.AppendInt(dst, int64(5*time.Second))

	d := wirefmt.NewDec(dst)
	if v := d.Uvarint(); v != 0 {
		t.Errorf("uvarint = %d", v)
	}
	if v := d.Uvarint(); v != 1<<60 {
		t.Errorf("uvarint = %d", v)
	}
	if v := d.Int(); v != -1 {
		t.Errorf("int = %d", v)
	}
	if v := d.Int(); v != math.MinInt64 {
		t.Errorf("int = %d, want MinInt64", v)
	}
	if v := d.Int(); v != math.MaxInt64 {
		t.Errorf("int = %d, want MaxInt64", v)
	}
	if v := d.Float64(); v != -0.125 {
		t.Errorf("float = %g", v)
	}
	if v := d.Float64(); !math.IsInf(v, 1) {
		t.Errorf("float = %g, want +Inf", v)
	}
	if v := d.String(); v != "" {
		t.Errorf("string = %q", v)
	}
	if v := d.String(); v != "nonempty ∞ string" {
		t.Errorf("string = %q", v)
	}
	if v := d.Float64s(); v != nil {
		t.Errorf("empty slice = %v, want nil", v)
	}
	if v := d.Float64s(); len(v) != 3 || v[0] != 1 || v[1] != -2.5 || v[2] != 0 {
		t.Errorf("slice = %v", v)
	}
	if v := d.Duration(); v != 5*time.Second {
		t.Errorf("duration = %v", v)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestDecLatchesErrors(t *testing.T) {
	// Truncated float: the error latches and every later read is zero.
	d := wirefmt.NewDec([]byte{1, 2, 3})
	if v := d.Float64(); v != 0 {
		t.Errorf("truncated float = %g", v)
	}
	if d.Err() == nil {
		t.Fatal("no error latched")
	}
	if v := d.Uvarint(); v != 0 {
		t.Errorf("read after error = %d", v)
	}
	if d.Done() == nil {
		t.Error("Done nil after error")
	}

	// Trailing bytes are an error even when every read succeeded.
	d = wirefmt.NewDec(wirefmt.AppendUvarint(nil, 9))
	_ = d.Uvarint()
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	d = wirefmt.NewDec(append(wirefmt.AppendUvarint(nil, 9), 0xAA))
	_ = d.Uvarint()
	if d.Done() == nil {
		t.Error("trailing bytes accepted")
	}

	// String length prefix pointing past the buffer.
	d = wirefmt.NewDec(wirefmt.AppendUvarint(nil, 1000))
	if v := d.String(); v != "" {
		t.Errorf("overlong string = %q", v)
	}
	if d.Err() == nil {
		t.Error("overlong string length accepted")
	}

	// Float64s length prefix pointing past the buffer must not allocate
	// or succeed.
	d = wirefmt.NewDec(wirefmt.AppendUvarint(nil, 1<<50))
	if v := d.Float64s(); v != nil {
		t.Errorf("overlong slice = %v", v)
	}
	if d.Err() == nil {
		t.Error("overlong slice length accepted")
	}
}

// TestSparseFloat64sRoundTrip: an allocation reply's takes in the
// spelling the wire carries (wirefmt.AppendTakes). Small whole takes keep
// a byte or two each behind a nibble; full mantissas keep all eight, and
// then a vector is the runs of protocol version 2 behind a doubled count.
func TestSparseFloat64sRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		idx  []int
		vals []float64
		size int // encoded bytes
	}{
		{"empty", nil, nil, 1},
		{"one at zero", []int{0}, []float64{3}, 1 + 1 + 2 + 2},
		{"isolated", []int{2, 40, 4000}, []float64{1, 2, 3}, 1 + 2 + 2 + 2 + 2 + 1 + 3 + 2},
		// Every index present is one run: two bytes over the values.
		{"dense", []int{0, 1, 2, 3, 4}, []float64{1, 2, 3, 4, 5}, 1 + 3 + 2 + 9},
		{"runs", []int{1, 2, 5, 6, 7}, []float64{1, 2, 3, 4, 5}, 1 + 3 + 2 + 3 + 2 + 6},
		{"far", []int{math.MaxInt - 2, math.MaxInt - 1}, []float64{1, 2}, 1 + 1 + 9 + 1 + 3},
		{"full mantissas", []int{1, 2, 5}, []float64{math.Pi, math.E, math.Sqrt2}, 1 + 2 + 16 + 2 + 8},
	}
	for _, c := range cases {
		enc, err := wirefmt.AppendTakes(nil, c.idx, c.vals)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(enc) != c.size {
			t.Errorf("%s: %d bytes, want %d", c.name, len(enc), c.size)
		}
		d := wirefmt.NewDec(enc)
		idx, vals := d.Takes()
		if err := d.Done(); err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if len(idx) != len(c.idx) || len(vals) != len(c.vals) {
			t.Errorf("%s: decoded %v at %v", c.name, vals, idx)
			continue
		}
		for k := range idx {
			if idx[k] != c.idx[k] || vals[k] != c.vals[k] {
				t.Errorf("%s: entry %d = %g at %d, want %g at %d", c.name, k, vals[k], idx[k], c.vals[k], c.idx[k])
			}
		}
	}
}

// TestSparseFloat64sRejectsMalformed: in version 2's spelling, which the
// log upgrader still reads through Dec.Runs, the count is checked against
// the bytes present before anything is sized by it, and of the many ways
// to spell one vector as runs only the encoder's was read. Its run rules
// are the wire's.
func TestSparseFloat64sRejectsMalformed(t *testing.T) {
	uv := wirefmt.AppendUvarint
	f8 := func(dst []byte, n int) []byte {
		for i := 0; i < n; i++ {
			dst = wirefmt.AppendFloat64(dst, 1)
		}
		return dst
	}
	cases := map[string][]byte{
		"count beyond the input":     uv(nil, 1<<60),
		"count beyond the floats":    f8(uv(uv(uv(nil, 3), 0), 3), 2),
		"empty run":                  f8(uv(uv(uv(uv(uv(nil, 1), 0), 0), 0), 1), 1),
		"run beyond the count":       f8(uv(uv(uv(nil, 1), 0), 2), 2),
		"touching runs":              f8(uv(uv(f8(uv(uv(uv(nil, 2), 4), 1), 1), 0), 1), 1),
		"index overflow in the gap":  f8(uv(uv(f8(uv(uv(uv(nil, 2), math.MaxInt-1), 1), 1), 5), 1), 1),
		"index overflow in the run":  f8(uv(uv(uv(nil, 2), math.MaxInt-1), 2), 2),
		"gap beyond the int range":   f8(uv(uv(uv(nil, 1), math.MaxUint64), 1), 1),
		"padded uvarint":             f8(append(uv(nil, 1), 0x80, 0x00, 0x01), 1),
		"truncated inside the float": f8(uv(uv(uv(nil, 1), 0), 1), 1)[:8],
	}
	for name, enc := range cases {
		d := wirefmt.NewDec(enc)
		idx, vals := d.Runs(d.Uvarint())
		if d.Err() == nil {
			t.Errorf("%s: accepted % x as %v at %v", name, enc, vals, idx)
		}
		if idx != nil || vals != nil {
			t.Errorf("%s: a failed read returned %v at %v", name, vals, idx)
		}
	}
}
