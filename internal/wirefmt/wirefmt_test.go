package wirefmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

func frameOf(t testing.TB, payload string) []byte {
	t.Helper()
	buf, err := EndFrame(append(BeginFrame(nil), payload...), 0)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestFramesBuiltInPlace: frames begun one after the other in one buffer
// lie back to back and read back in order, and Reader's errors tell a
// clean end from a torn frame from a corrupt one.
func TestFramesBuiltInPlace(t *testing.T) {
	var buf []byte
	payloads := []string{"first", "", "third, longer than the two before it", strings.Repeat("y", 200)}
	for _, p := range payloads {
		var err error
		if buf, err = EndFrame(append(BeginFrame(buf), p...), len(buf)); err != nil {
			t.Fatal(err)
		}
	}
	// Three 5-byte headers, one of 6 for the payload past 127 bytes.
	if want := 3*5 + 6 + len(strings.Join(payloads, "")); len(buf) != want {
		t.Fatalf("four frames take %d bytes: the headers are not the lengths' own", len(buf))
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
		if fr.Offset() != int64(len(buf)) {
			t.Fatalf("size %d: Offset %d after every frame of %d bytes", size, fr.Offset(), len(buf))
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
	failing := io.MultiReader(bytes.NewReader(whole[:6]), iotest.ErrReader(io.ErrClosedPipe))
	if _, err := NewReader(failing, -1).Next(); !errors.Is(err, io.ErrClosedPipe) || errors.Is(err, ErrCorrupt) {
		t.Errorf("failing source: err = %v, want the source's error", err)
	}
}

// TestFrameHeaderSpelling pins the header byte for byte: the length is
// the payload's minimal uvarint, 1 to 4 bytes, then the CRC, and EndFrame
// leaves the frame at the offset it was begun at however short its
// header came out.
func TestFrameHeaderSpelling(t *testing.T) {
	if got, want := frameOf(t, "ab"), []byte{0x02, 0x6d, 0x48, 0x83, 0x9e, 'a', 'b'}; !bytes.Equal(got, want) {
		t.Fatalf("frame of \"ab\" = % x, want % x", got, want)
	}
	if got, want := frameOf(t, ""), []byte{0, 0, 0, 0, 0}; !bytes.Equal(got, want) {
		t.Fatalf("empty frame = % x, want % x", got, want)
	}
	for _, tc := range []struct{ n, header int }{{127, 5}, {128, 6}, {1<<14 - 1, 6}, {1 << 14, 7}, {1<<21 - 1, 7}, {1 << 21, 8}, {MaxFramePayload, 8}} {
		payload := make([]byte, tc.n)
		payload[tc.n-1] = 0xAB
		lead := []byte("lead")
		frame, err := EndFrame(append(BeginFrame(lead), payload...), len(lead))
		if err != nil {
			t.Fatal(err)
		}
		if got := len(frame) - len(lead) - tc.n; got != tc.header {
			t.Errorf("payload of %d bytes: %d-byte header, want %d", tc.n, got, tc.header)
		}
		if !bytes.Equal(frame[:len(lead)], lead) || !bytes.Equal(frame[len(lead)+tc.header:], payload) {
			t.Errorf("payload of %d bytes: the bytes before the frame or its payload moved", tc.n)
		}
		if n, k := binary.Uvarint(frame[len(lead):]); n != uint64(tc.n) || k != tc.header-4 {
			t.Errorf("payload of %d bytes: length field reads %d in %d bytes", tc.n, n, k)
		}
	}
	if _, err := EndFrame(append(BeginFrame(nil), make([]byte, MaxFramePayload+1)...), 0); err == nil {
		t.Error("a payload over the limit was framed")
	}
}

// TestReaderRefusesLengthBeforeSizing: a length field beyond the frame
// limit, or beyond what a sized source still holds, is refused without a
// buffer being made for it.
func TestReaderRefusesLengthBeforeSizing(t *testing.T) {
	header := func(n uint64) []byte { return append(binary.AppendUvarint(nil, n), 1, 2, 3, 4) }
	lying := append(header(8<<20), 'x') // claims 8 MB
	fr := NewReader(bytes.NewReader(lying), int64(len(lying)))
	if _, err := fr.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("length beyond the source: err = %v, want ErrCorrupt", err)
	}
	if cap(fr.buf) != 0 {
		t.Errorf("a %d-byte buffer was sized by the refused length", cap(fr.buf))
	}
	for name, over := range map[string][]byte{
		"over the limit":      header(MaxFramePayload + 1),
		"a fifth length byte": {0x80, 0x80, 0x80, 0x80, 0x00, 1, 2, 3, 4},
		"64-bit length":       header(1 << 62),
	} {
		fr := NewReader(bytes.NewReader(over), -1)
		if _, err := fr.Next(); !errors.Is(err, ErrCorrupt) || cap(fr.buf) != 0 {
			t.Errorf("%s: err = %v, buffer of %d bytes; want ErrCorrupt and none", name, err, cap(fr.buf))
		}
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

// TestReaderRefusesPaddedLength: a length spelled in more bytes than it
// needs is refused even when the CRC matches, so a frame has one
// spelling.
func TestReaderRefusesPaddedLength(t *testing.T) {
	good := frameOf(t, "abc")
	for _, pad := range [][]byte{{0x83, 0x00}, {0x83, 0x80, 0x00}, {0x83, 0x80, 0x80, 0x00}} {
		frame := append(append([]byte(nil), pad...), good[1:]...)
		if _, err := NewReader(bytes.NewReader(frame), int64(len(frame))).Next(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("length spelled % x: err = %v, want ErrCorrupt", pad, err)
		}
	}
	if _, err := NewReader(bytes.NewReader([]byte{0x80, 0x00, 0, 0, 0, 0}), -1).Next(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("empty frame with a padded length: err = %v, want ErrCorrupt", err)
	}
}

// legacyFrame is a frame as logs were written before lengths were
// uvarints: a fixed 4-byte length.
func legacyFrame(payload string) []byte {
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE([]byte(payload)))
	return append(frame, payload...)
}

// legacyNext reads one frame with the fixed 8-byte header from r, which fr
// reads too, the way the reader of the logs written before the file magic
// does: the header itself, the payload through ReadPayload.
func legacyNext(r io.Reader, fr *Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	return fr.ReadPayload(uint64(binary.LittleEndian.Uint32(hdr[:4])), len(hdr), binary.LittleEndian.Uint32(hdr[4:]))
}

// legacyErr is what reading raw's first legacy frame returns, from a
// source of the given size as NewReader takes it.
func legacyErr(raw []byte, size int64) error {
	r := bytes.NewReader(raw)
	_, err := legacyNext(r, NewReader(r, size))
	return err
}

// TestLegacyReader: a reader of another header spelling gets Next's checks
// through ReadPayload — the limit, the size of the source, the CRC, a torn
// payload — and an offset that counts its headers; a frame of this
// spelling is not one of its frames.
func TestLegacyReader(t *testing.T) {
	raw := append(legacyFrame("first"), legacyFrame("")...)
	r := bytes.NewReader(raw)
	fr := NewReader(r, int64(len(raw)))
	for _, want := range []string{"first", ""} {
		if got, err := legacyNext(r, fr); err != nil || string(got) != want {
			t.Fatalf("read %q, %v; want %q", got, err, want)
		}
	}
	if _, err := legacyNext(r, fr); err != io.EOF || fr.Offset() != int64(len(raw)) {
		t.Fatalf("after the last frame: err %v, offset %d of %d", err, fr.Offset(), len(raw))
	}
	for cut := 1; cut < len(raw)-8; cut++ {
		if err := legacyErr(raw[:cut], -1); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut at %d: err = %v", cut, err)
		}
		if err := legacyErr(raw[:cut], int64(cut)); cut >= 8 && !errors.Is(err, ErrCorrupt) {
			t.Errorf("cut at %d of a sized source: err = %v, want ErrCorrupt", cut, err)
		}
	}
	over := binary.LittleEndian.AppendUint32(nil, MaxFramePayload+1)
	if err := legacyErr(append(over, 0, 0, 0, 0), -1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("legacy length over the limit: err = %v, want ErrCorrupt", err)
	}
	flipped := legacyFrame("first")
	flipped[len(flipped)-1] ^= 1
	if err := legacyErr(flipped, -1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("a flipped payload bit: err = %v, want ErrCorrupt", err)
	}
	if current := frameOf(t, "first"); legacyErr(current, int64(len(current))) == nil {
		t.Errorf("a frame of this spelling read as a legacy frame")
	}
}

// FuzzFrame feeds arbitrary bytes to the frame reader. It must never
// panic or size a buffer beyond what a sized source holds; a frame they
// accept must be the frame EndFrame writes for its payload, byte for
// byte; a sized and an unsized reader must accept the same frames; and
// frames built from pieces of the input must read back as those pieces.
func FuzzFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(frameOf(f, "payload"))
	f.Add(append(frameOf(f, ""), frameOf(f, strings.Repeat("z", 300))...))
	f.Add([]byte{0x83, 0x00, 1, 2, 3, 4, 'a', 'b', 'c'})          // padded length
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})             // a length over the limit
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}) // a length in eight bytes
	f.Add(legacyFrame("legacy"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sized := NewReader(bytes.NewReader(data), int64(len(data)))
		unsized := NewReader(bytes.NewReader(data), -1)
		for {
			start := sized.Offset()
			payload, err := sized.Next()
			if cap(sized.buf) > len(data) {
				t.Fatalf("a %d-byte buffer sized over a %d-byte source", cap(sized.buf), len(data))
			}
			other, otherErr := unsized.Next()
			if (err == nil) != (otherErr == nil) {
				t.Fatalf("at byte %d the sized reader says %v, the unsized one %v", start, err, otherErr)
			}
			if err != nil {
				if err != io.EOF && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("at byte %d: error %v is neither an end nor corruption", start, err)
				}
				break
			}
			if !bytes.Equal(payload, other) || sized.Offset() != unsized.Offset() {
				t.Fatalf("at byte %d the readers read different frames", start)
			}
			accepted := data[start:sized.Offset()]
			if again := frameOf(t, string(payload)); !bytes.Equal(again, accepted) {
				t.Fatalf("frame % x accepted; its payload is framed as % x", accepted, again)
			}
		}

		// The input cut into pieces, each framed after the last in one
		// buffer, reads back piece by piece.
		var pieces []string
		for rest := data; len(rest) > 0; {
			n := min(int(rest[0])+1, len(rest))
			pieces, rest = append(pieces, string(rest[:n])), rest[n:]
		}
		var buf []byte
		for _, p := range pieces {
			var err error
			if buf, err = EndFrame(append(BeginFrame(buf), p...), len(buf)); err != nil {
				t.Fatal(err)
			}
		}
		fr := NewReader(bytes.NewReader(buf), int64(len(buf)))
		for i, want := range pieces {
			if got, err := fr.Next(); err != nil || string(got) != want {
				t.Fatalf("piece %d read back as %q, %v; want %q", i, got, err, want)
			}
		}
		if _, err := fr.Next(); err != io.EOF || fr.Offset() != int64(len(buf)) {
			t.Fatalf("after %d pieces: err %v at offset %d of %d", len(pieces), err, fr.Offset(), len(buf))
		}
	})
}

// appendV2 spells a vector the way protocol version 2 did, which nothing
// writes any more and the log upgrader reads through Runs: AppendTakes's
// full form behind the bare count.
func appendV2(dst []byte, idx []int, vals []float64) []byte {
	dst = AppendUvarint(dst, uint64(len(idx)))
	next := 0
	for k := 0; k < len(idx); {
		end := k + 1
		for end < len(idx) && idx[end] == idx[end-1]+1 {
			end++
		}
		dst = AppendUvarint(AppendUvarint(dst, uint64(idx[k]-next)), uint64(end-k))
		for _, x := range vals[k:end] {
			dst = AppendFloat64(dst, x)
		}
		next, k = idx[end-1]+1, end
	}
	return dst
}

func mustTakes(t testing.TB, idx []int, vals []float64) []byte {
	t.Helper()
	enc, err := AppendTakes(nil, idx, vals)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// sameBits reports whether two vectors hold the same float64 bits, which
// is equality that tells -0 from +0 and one NaN payload from another.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestTakesSpelling pins both forms byte for byte: the full form is
// version 2's runs behind a doubled count, and the trimmed one, chosen
// only when it is shorter, keeps each value's bytes above its trailing
// zero ones behind a nibble of their number.
func TestTakesSpelling(t *testing.T) {
	uv := AppendUvarint
	full := func(dst []byte, xs ...float64) []byte {
		for _, x := range xs {
			dst = AppendFloat64(dst, x)
		}
		return dst
	}
	ring := math.Float64frombits(0x3dc4000000000000) // a take ~30 hops round ring64
	tie := math.Float64frombits(0x400921fb54440000)  // pi without its two low bytes
	cases := []struct {
		name string
		idx  []int
		vals []float64
		want []byte
	}{
		{"empty", nil, nil, []byte{0x00}},
		{"full mantissa", []int{0}, []float64{math.Pi}, full(uv(uv(uv(nil, 2), 0), 1), math.Pi)},
		{"one short value", []int{3}, []float64{3}, []byte{0x03, 0x02, 3, 1, 0x08, 0x40}},
		{"zero and minus zero", []int{0, 1}, []float64{0, math.Copysign(0, -1)}, []byte{0x05, 0x10, 0, 2, 0x80}},
		{"odd count, runs", []int{1, 2, 9}, []float64{ring, 1, -2}, []byte{0x07, 0x22, 0x01, 1, 2, 0xc4, 0x3d, 0xf0, 0x3f, 6, 1, 0xc0}},
		// Two nibble bytes and 8 + 8 + 6 stored bytes tie the 24 of the
		// full form, and a tie is spelled in full.
		{"a tie", []int{0, 1, 2}, []float64{math.Pi, math.E, tie}, full(uv(uv(uv(nil, 6), 0), 3), math.Pi, math.E, tie)},
		{"64 entries, a byte for the flag", seq(64), repeat(math.Pi, 64), full(uv(uv(uv(nil, 128), 0), 64), repeat(math.Pi, 64)...)},
	}
	for _, c := range cases {
		enc := mustTakes(t, c.idx, c.vals)
		if !bytes.Equal(enc, c.want) {
			t.Errorf("%s: % x, want % x", c.name, enc, c.want)
		}
		d := NewDec(enc)
		idx, vals := d.Takes()
		if err := d.Done(); err != nil || !slices.Equal(idx, c.idx) || !sameBits(vals, c.vals) {
			t.Errorf("%s: decoded %v at %v (%v)", c.name, vals, idx, err)
		}
	}
}

func seq(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func repeat(x float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = x
	}
	return xs
}

// TestTakesRefusesPairs: the writer refuses what no decoder reads back,
// and leaves dst as it came.
func TestTakesRefusesPairs(t *testing.T) {
	for name, c := range map[string]struct {
		idx  []int
		vals []float64
	}{
		"more values":  {[]int{0}, []float64{1, 2}},
		"more indices": {[]int{0, 1}, []float64{1}},
		"negative":     {[]int{-1}, []float64{1}},
		"repeated":     {[]int{1, 1}, []float64{1, 2}},
		"descending":   {[]int{2, 1}, []float64{1, 2}},
	} {
		dst := []byte("kept")
		got, err := AppendTakes(dst, c.idx, c.vals)
		if err == nil || string(got) != "kept" {
			t.Errorf("%s: % x, %v; want dst back and an error", name, got, err)
		}
	}
}

// TestTakesRefusesNonCanonical: of the spellings that would decode to a
// vector, only the encoder's is read — and a count is checked against the
// bytes it needs before anything is sized by it.
func TestTakesRefusesNonCanonical(t *testing.T) {
	cases := map[string][]byte{
		"full count beyond the input":      {0x0a, 0, 5, 1, 2, 3, 4, 5, 6, 7, 8},
		"trimmed count beyond the nibbles": {0x0b, 0x11, 0x11},
		"stored bytes beyond the input":    {0x03, 0x06, 0, 1, 1, 2, 3},
		"stored length 9":                  {0x05, 0x19, 0, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0x40},
		"non-zero filler nibble":           {0x03, 0x12, 0, 1, 0x08, 0x40},
		"padded value":                     {0x03, 0x02, 0, 1, 0x00, 0x40},
		"trimmed not shorter":              {0x03, 0x08, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8},
		"empty trimmed vector":             {0x01},
		"full when trimmed is shorter":     append([]byte{0x02, 0, 1}, AppendFloat64(nil, 3)...),
		"trimmed value cut by the runs":    {0x03, 0x02, 0, 1, 0x40},
		"empty run":                        {0x03, 0x01, 0, 0, 0, 1, 0x40},
		"run beyond the count":             {0x03, 0x01, 0, 2, 0x40, 0x40},
		"touching runs":                    {0x05, 0x11, 0, 1, 0x40, 0, 1, 0x40},
		"padded uvarint":                   {0x03, 0x01, 0x80, 0x00, 1, 0x40},
	}
	for name, enc := range cases {
		d := NewDec(enc)
		idx, vals := d.Takes()
		if d.Done() == nil {
			t.Errorf("%s: accepted % x as %v at %v", name, enc, vals, idx)
		}
		if idx != nil || vals != nil {
			t.Errorf("%s: a failed read returned %v at %v", name, vals, idx)
		}
	}
	// Six stored bytes in five are refused before the slices are sized.
	if idx, vals := NewDec(cases["stored bytes beyond the input"]).AppendTakes(nil, nil); cap(idx) != 0 || cap(vals) != 0 {
		t.Errorf("a vector whose stored bytes are missing sized %d indices and %d values", cap(idx), cap(vals))
	}
}

// randomTakes draws a vector the way grants look, and then some: runs and
// isolated entries, values with every count of trailing zero bytes, and
// the values floats are easiest to get wrong.
func randomTakes(rng *rand.Rand, n int) ([]int, []float64) {
	special := []uint64{0, 1 << 63, 1, 0x000fffffffffffff, 0x7ff0000000000000, 0xfff0000000000000,
		0x7ff8000000000001, 0xfff4000000000000, 0x7ff0000000000100, math.Float64bits(math.MaxFloat64)}
	idx, vals := make([]int, n), make([]float64, n)
	next := 0
	for k := range idx {
		if rng.Intn(3) == 0 {
			next += rng.Intn(1 << uint(rng.Intn(20)))
		}
		idx[k], next = next, next+1
		b := rng.Uint64()
		switch rng.Intn(4) {
		case 0:
			b = special[rng.Intn(len(special))]
		case 1, 2:
			b &^= 1<<(8*rng.Intn(8)) - 1 // drop 0–7 low bytes
		}
		vals[k] = math.Float64frombits(b)
	}
	return idx, vals
}

// TestTakesRoundTripRandom: every vector comes back bit for bit, its
// spelling decodes and re-encodes to itself, and it is never longer than
// version 2's below 64 entries, nor more than the flag's byte longer at
// any size.
func TestTakesRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(70)
		if trial%10 == 0 {
			n = rng.Intn(300)
		}
		idx, vals := randomTakes(rng, n)
		enc := mustTakes(t, idx, vals)
		d := NewDec(enc)
		gotIdx, gotVals := d.Takes()
		if err := d.Done(); err != nil || !slices.Equal(gotIdx, idx) || !sameBits(gotVals, vals) {
			t.Fatalf("%v at %v decodes to %v at %v (%v)", vals, idx, gotVals, gotIdx, err)
		}
		if again := mustTakes(t, gotIdx, gotVals); !bytes.Equal(again, enc) {
			t.Fatalf("% x re-encodes to % x", enc, again)
		}
		v2 := appendV2(nil, idx, vals)
		if slack := len(enc) - len(v2); slack > 1 || (n < 64 && slack > 0) {
			t.Fatalf("%d entries: %d bytes, version 2 spelled them in %d", n, len(enc), len(v2))
		}
		d = NewDec(v2)
		if v2Idx, v2Vals := d.Runs(d.Uvarint()); d.Done() != nil || !slices.Equal(v2Idx, idx) || !sameBits(v2Vals, vals) {
			t.Fatalf("version 2 spelling % x reads as %v at %v (%v)", v2, v2Vals, v2Idx, d.Err())
		}
	}
}

// TestAppendTakesAgrees holds the appending decode to Takes on vectors
// the encoder wrote and on spellings it refuses: the same entries after
// whatever the slices held, the same refusals with the slices handed back
// as they came, and slices without room grown to exactly the count.
func TestAppendTakesAgrees(t *testing.T) {
	inputs := [][]byte{
		mustTakes(t, nil, nil),
		mustTakes(t, []int{0}, []float64{3}),
		mustTakes(t, []int{2, 40, 4000}, []float64{1, 2, 3}),
		mustTakes(t, []int{1, 2, 5, 6, 7, 9, 10, 11, 12, 20}, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
		mustTakes(t, []int{1, 2, 5, 6, 7}, []float64{math.Pi, math.E, math.Sqrt2, math.Ln2, math.Phi}),
		mustTakes(t, []int{math.MaxInt - 2, math.MaxInt - 1}, []float64{1, 2}),
		AppendUvarint(nil, 1<<60),                            // count beyond the input
		{0x0b, 0x11, 0x11},                                   // trimmed count beyond the nibbles
		{0x03, 0x02, 0, 1, 0x00, 0x40},                       // padded value
		append([]byte{0x02, 0, 1}, AppendFloat64(nil, 3)...), // the longer form
		{0x05, 0x11, 0, 1, 0x40, 0, 1, 0x40},                 // touching runs
		{0x05, 0x11, 0, 1, 0x40, 5},                          // second value past the input
		append(AppendUvarint(AppendUvarint(nil, 4), math.MaxInt-1), 2, 0x40, 0x40, 0x40), // index overflow in the run
	}
	for _, enc := range inputs {
		d := NewDec(enc)
		wantIdx, wantVals := d.Takes()
		wantErr := d.Err()
		for _, room := range []int{0, 3, 16} {
			idx, vals := append(make([]int, 0, 1+room), -1), append(make([]float64, 0, 1+room), -1)
			d := NewDec(enc)
			idx, vals = d.AppendTakes(idx, vals)
			if (d.Err() == nil) != (wantErr == nil) {
				t.Fatalf("% x with room for %d: error %v, Takes says %v", enc, room, d.Err(), wantErr)
			}
			if len(idx) == 0 || idx[0] != -1 || vals[0] != -1 {
				t.Fatalf("% x with room for %d: what the slices held is gone: %v at %v", enc, room, vals, idx)
			}
			if !slices.Equal(idx[1:], wantIdx) || !sameBits(vals[1:], wantVals) {
				t.Fatalf("% x with room for %d: %v at %v, Takes reads %v at %v", enc, room, vals[1:], idx[1:], wantVals, wantIdx)
			}
			if n := len(idx) - 1; n > room && (cap(idx) != len(idx) || cap(vals) != len(vals)) {
				t.Fatalf("% x with room for %d: %d entries grew the slices to %d and %d", enc, room, n, cap(idx), cap(vals))
			}
		}
	}
}

// FuzzTakes holds the take-vector spelling to its contract from both
// ends. Arbitrary bytes: the decoder never panics, sizes nothing past
// two entries a byte (a nibble each is the least an entry is spelled in),
// and what it accepts re-encodes byte for byte. The same bytes read as a
// vector — gaps and 8-byte values, some with low bytes cleared — come
// back bit for bit through the encoder and decoder, NaN payloads, −0,
// subnormals and infinities included.
func FuzzTakes(f *testing.F) {
	f.Add([]byte{})
	f.Add(mustTakes(f, []int{1, 2, 9}, []float64{math.Float64frombits(0x3dc4000000000000), 1, -2}))
	f.Add(mustTakes(f, []int{0, 5}, []float64{math.Pi, math.NaN()}))
	f.Add(mustTakes(f, seq(63), repeat(0.125, 63)))
	f.Add(mustTakes(f, []int{0, 1, 2}, []float64{math.Copysign(0, -1), math.Inf(1), math.SmallestNonzeroFloat64}))
	f.Add(appendV2(nil, []int{4}, []float64{3}))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDec(data)
		idx, vals := d.AppendTakes(nil, nil)
		if cap(idx) > 2*len(data) || cap(vals) > 2*len(data) {
			t.Fatalf("% x sized %d indices and %d values", data, cap(idx), cap(vals))
		}
		if d.Err() == nil {
			used := data[:len(data)-len(d.buf)]
			if again := mustTakes(t, idx, vals); !bytes.Equal(again, used) {
				t.Fatalf("% x accepted as %v at %v re-encodes to % x", used, vals, idx, again)
			}
		}

		idx, vals = idx[:0], vals[:0]
		next := 0
		for rest := data; len(rest) >= 9; rest = rest[9:] {
			next += int(rest[0] >> 4)
			b := binary.LittleEndian.Uint64(rest[1:])
			b &^= 1<<(8*(rest[0]&7)) - 1
			idx, vals = append(idx, next), append(vals, math.Float64frombits(b))
			next++
		}
		enc := mustTakes(t, idx, vals)
		d = NewDec(enc)
		gotIdx, gotVals := d.Takes()
		if err := d.Done(); err != nil || !slices.Equal(gotIdx, idx) || !sameBits(gotVals, vals) {
			t.Fatalf("%v at %v spelled % x reads as %v at %v (%v)", vals, idx, enc, gotVals, gotIdx, err)
		}
	})
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

// ringTakes is a grant shaped like ring64's: 63 sources in two runs
// around requester 32, the takes falling by 0.4 a hop, each with 0–5 low
// bytes of zero — 2.5 on average, where ring64's WAL reads 2.48.
func ringTakes() ([]int, []float64) {
	var idx []int
	var vals []float64
	for p := 0; p < 64; p++ {
		if hops := 32 - min(p, 64-p); hops > 0 {
			b := math.Float64bits(60 * math.Pow(0.4, float64(hops)))
			idx, vals = append(idx, p), append(vals, math.Float64frombits(b&^(1<<(8*(p%6))-1)))
		}
	}
	return idx, vals
}

// ispTakes is a grant shaped like isp10's: 5 of 10 principals, full
// mantissas, so the vector is spelled in full.
func ispTakes() ([]int, []float64) {
	return []int{0, 2, 3, 6, 8}, []float64{11.1 / 3, math.Pi, 2.2 / 7, math.E, math.Sqrt2}
}

func benchmarkAppendTakes(b *testing.B, idx []int, vals []float64) {
	buf := make([]byte, 0, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = AppendTakes(buf[:0], idx, vals)
	}
	b.ReportMetric(float64(len(buf)), "B/vector")
}

func benchmarkDecodeTakes(b *testing.B, idx []int, vals []float64) {
	enc := mustTakes(b, idx, vals)
	gotIdx, gotVals := make([]int, 0, len(idx)), make([]float64, 0, len(vals))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := NewDec(enc)
		gotIdx, gotVals = d.AppendTakes(gotIdx[:0], gotVals[:0])
		if d.Err() != nil {
			b.Fatal(d.Err())
		}
	}
}

// BenchmarkAppendTakesRing63 prices the trimmed form's write.
func BenchmarkAppendTakesRing63(b *testing.B) { benchmarkAppendTakes(b, ringIdx, ringVals) }

// BenchmarkDecodeTakesRing63 prices the trimmed form's read into room.
func BenchmarkDecodeTakesRing63(b *testing.B) { benchmarkDecodeTakes(b, ringIdx, ringVals) }

// BenchmarkAppendTakesISP5 prices the full form's write.
func BenchmarkAppendTakesISP5(b *testing.B) { benchmarkAppendTakes(b, ispIdx, ispVals) }

// BenchmarkDecodeTakesISP5 prices the full form's read into room.
func BenchmarkDecodeTakesISP5(b *testing.B) { benchmarkDecodeTakes(b, ispIdx, ispVals) }

var (
	ringIdx, ringVals = ringTakes()
	ispIdx, ispVals   = ispTakes()
)
