package wirefmt

import (
	"bytes"
	"errors"
	"io"
	"math"
	"slices"
	"testing"
	"testing/iotest"
)

func frameOf(t *testing.T, payload string) []byte {
	t.Helper()
	buf := append(BeginFrame(nil), payload...)
	if err := EndFrame(buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestFramesBuiltInPlace: frames begun one after the other in one buffer
// read back in order, and Reader's errors tell a clean end from a torn
// frame from a corrupt one.
func TestFramesBuiltInPlace(t *testing.T) {
	var buf []byte
	payloads := []string{"first", "", "third, longer than the two before it"}
	for _, p := range payloads {
		start := len(buf)
		buf = append(BeginFrame(buf), p...)
		if err := EndFrame(buf, start); err != nil {
			t.Fatal(err)
		}
	}
	for _, size := range []int64{int64(len(buf)), -1} {
		fr := NewReader(iotest.OneByteReader(bytes.NewReader(buf)), size)
		for _, want := range payloads {
			got, err := fr.Next()
			if err != nil || string(got) != want {
				t.Fatalf("size %d: Next = %q, %v; want %q", size, got, err, want)
			}
		}
		if _, err := fr.Next(); err != io.EOF {
			t.Fatalf("size %d: after the last frame err = %v, want io.EOF itself", size, err)
		}
	}

	whole := frameOf(t, "payload")
	for cut := 1; cut < len(whole); cut++ {
		_, err := NewReader(bytes.NewReader(whole[:cut]), -1).Next()
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut at %d: err = %v, want it to wrap io.ErrUnexpectedEOF", cut, err)
		}
	}
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)-1] ^= 1
	if _, err := NewReader(bytes.NewReader(flipped), -1).Next(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("flipped payload bit: err = %v, want ErrCorrupt", err)
	}
	failing := io.MultiReader(bytes.NewReader(whole[:10]), iotest.ErrReader(io.ErrClosedPipe))
	if _, err := NewReader(failing, -1).Next(); !errors.Is(err, io.ErrClosedPipe) || errors.Is(err, ErrCorrupt) {
		t.Errorf("failing source: err = %v, want the source's error", err)
	}
}

// TestReaderRefusesLengthBeforeSizing: a length field beyond the frame
// limit, or beyond what a sized source still holds, is refused without a
// buffer being made for it.
func TestReaderRefusesLengthBeforeSizing(t *testing.T) {
	lying := frameOf(t, "x")
	lying[2] = 0x80 // claims 8 MB
	fr := NewReader(bytes.NewReader(lying), int64(len(lying)))
	if _, err := fr.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("length beyond the source: err = %v, want ErrCorrupt", err)
	}
	if cap(fr.buf) != 0 {
		t.Errorf("a %d-byte buffer was sized by the refused length", cap(fr.buf))
	}
	over := frameOf(t, "x")
	over[3] = 0x7F
	if _, err := NewReader(bytes.NewReader(over), -1).Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("length beyond the limit: err = %v, want ErrCorrupt", err)
	}
	// The second frame of a sized source is measured against what the
	// first left.
	two := append(frameOf(t, "one"), frameOf(t, "two")...)
	fr = NewReader(bytes.NewReader(two), int64(len(two))-1)
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := fr.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("second frame past the stated size: err = %v, want ErrCorrupt", err)
	}
}

// TestAppendSparseFloat64sAgrees holds the appending decode to
// SparseFloat64s on vectors the encoder wrote and on spellings it refuses
// (internal/grm/transport's tests name each refusal): the same entries
// after whatever the slices held, the same refusals with the slices handed
// back as they came, and slices without room grown to exactly the count.
func TestAppendSparseFloat64sAgrees(t *testing.T) {
	uv := AppendUvarint
	f8 := func(dst []byte, n int) []byte {
		for i := 0; i < n; i++ {
			dst = AppendFloat64(dst, float64(i)+0.5)
		}
		return dst
	}
	inputs := [][]byte{
		AppendSparseFloat64s(nil, nil, nil),
		AppendSparseFloat64s(nil, []int{0}, []float64{3}),
		AppendSparseFloat64s(nil, []int{2, 40, 4000}, []float64{1, 2, 3}),
		AppendSparseFloat64s(nil, []int{1, 2, 5, 6, 7, 9, 10, 11, 12, 20}, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
		AppendSparseFloat64s(nil, []int{math.MaxInt - 2, math.MaxInt - 1}, []float64{1, 2}),
		uv(nil, 1<<60),                                       // count beyond the input
		f8(uv(uv(uv(nil, 3), 0), 3), 2),                      // count beyond the floats
		f8(uv(uv(uv(uv(uv(nil, 1), 0), 0), 0), 1), 1),        // empty run
		f8(uv(uv(uv(nil, 1), 0), 2), 2),                      // run beyond the count
		f8(uv(uv(f8(uv(uv(uv(nil, 2), 4), 1), 1), 0), 1), 1), // touching runs
		f8(uv(uv(uv(nil, 2), math.MaxInt-1), 2), 2),          // index overflow in the run
		f8(uv(uv(uv(nil, 1), math.MaxUint64), 1), 1),         // gap beyond the int range
		f8(append(uv(nil, 1), 0x80, 0x00, 0x01), 1),          // padded uvarint
		f8(uv(uv(uv(nil, 1), 0), 1), 1)[:8],                  // truncated inside the float
		f8(uv(uv(f8(uv(uv(uv(nil, 4), 0), 2), 2), 3), 3), 2), // second run past the floats
	}
	for _, enc := range inputs {
		d := NewDec(enc)
		wantIdx, wantVals := d.SparseFloat64s()
		wantErr := d.Err()
		for _, room := range []int{0, 3, 16} {
			idx, vals := append(make([]int, 0, 1+room), -1), append(make([]float64, 0, 1+room), -1)
			d := NewDec(enc)
			idx, vals = d.AppendSparseFloat64s(idx, vals)
			if (d.Err() == nil) != (wantErr == nil) {
				t.Fatalf("% x with room for %d: error %v, SparseFloat64s says %v", enc, room, d.Err(), wantErr)
			}
			if len(idx) == 0 || idx[0] != -1 || vals[0] != -1 {
				t.Fatalf("% x with room for %d: what the slices held is gone: %v at %v", enc, room, vals, idx)
			}
			if !slices.Equal(idx[1:], wantIdx) || !slices.Equal(vals[1:], wantVals) {
				t.Fatalf("% x with room for %d: %v at %v, SparseFloat64s reads %v at %v", enc, room, vals[1:], idx[1:], wantVals, wantIdx)
			}
			if n := len(idx) - 1; n > room && (cap(idx) != len(idx) || cap(vals) != len(vals)) {
				t.Fatalf("% x with room for %d: %d entries grew the slices to %d and %d", enc, room, n, cap(idx), cap(vals))
			}
		}
	}
}

// TestBoolBytesCount covers the primitives the log added to the ones the
// wire had (internal/grm/transport's tests hold the rest of the contract).
func TestBoolBytesCount(t *testing.T) {
	enc := AppendBytes(AppendBool(AppendBool(nil, true), false), []byte("raw"))
	enc = AppendBytes(enc, nil)
	d := NewDec(enc)
	if !d.Bool() || d.Bool() {
		t.Error("bools did not round trip")
	}
	b := d.Bytes()
	if string(b) != "raw" {
		t.Errorf("bytes = %q", b)
	}
	b[0] = 'R' // a copy: the payload buffer is reused by the frame reader
	if enc[3] != 'r' {
		t.Error("Bytes aliases the payload")
	}
	if d.Bytes() != nil {
		t.Error("empty bytes not nil")
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}

	d = NewDec([]byte{2})
	if d.Bool(); d.Err() == nil {
		t.Error("bool byte 2 accepted")
	}
	d = NewDec(AppendUvarint(nil, 3)) // three elements of ≥ 4 bytes in no bytes
	if n := d.Count(4); n != 0 || d.Err() == nil {
		t.Errorf("Count = %d, %v; want a refusal", n, d.Err())
	}
	d = NewDec(append(AppendUvarint(nil, 2), make([]byte, 8)...))
	if n := d.Count(4); n != 2 || d.Err() != nil {
		t.Errorf("Count = %d, %v; want 2", n, d.Err())
	}
}
