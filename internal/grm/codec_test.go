package grm

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"
)

func TestRequestCodecRoundTrip(t *testing.T) {
	reqs := []*Request{
		{Register: &RegisterRequest{Name: "siteA", Capacity: 100.5}},
		{Register: &RegisterRequest{Name: "", Capacity: 0}},
		{Report: &ReportRequest{Principal: 3, Available: 12.25}},
		{Report: &ReportRequest{Principal: 0, Available: 0}},
		{Share: &ShareRequest{From: 1, To: 2, Fraction: 0.5}},
		{Share: &ShareRequest{From: 0, To: 4, Quantity: 17}},
		{Revoke: &RevokeRequest{Ticket: 9}},
		{Alloc: &AllocRequest{Principal: 2, Amount: 33.125}},
		{Release: &ReleaseRequest{Lease: 7}},
		{Renew: &RenewRequest{Lease: 7}},
		{Caps: &CapsRequest{}},
		{Peers: &PeersRequest{}},
		{Ping: &PingRequest{}},
	}
	for i, req := range reqs {
		enc, err := appendRequest(nil, req)
		if err != nil {
			t.Fatalf("request %d: encode: %v", i, err)
		}
		got, err := decodeRequest(enc)
		if err != nil {
			t.Fatalf("request %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Errorf("request %d round trip = %+v, want %+v", i, got, req)
		}
	}
}

func TestResponseCodecRoundTrip(t *testing.T) {
	resps := []*Response{
		{Err: "boom"},
		{Register: &RegisterReply{Principal: 4}},
		{Report: &ReportReply{}},
		{Share: &ShareReply{Ticket: 11}},
		{Revoke: &ReportReply{}},
		{Alloc: &AllocReply{Sources: []int{0, 2}, Takes: []float64{1, 2.5}, Theta: 0.125, Lease: 3, TTL: 10 * time.Second}},
		{Alloc: &AllocReply{Theta: 0, Lease: 0}},
		{Release: &ReportReply{}},
		{Renew: &RenewReply{TTL: 3 * time.Second}},
		{Caps: &CapsReply{Available: []float64{5, 6}, Capacities: []float64{7, 8}}},
		{Caps: &CapsReply{}},
		{Peers: &PeersReply{Names: []string{"a", "", "c"}}},
		{Peers: &PeersReply{}},
		{Ping: &PingReply{}},
		{Err: "partial failure", Report: &ReportReply{}},
		{Err: "grm: caps: no principals registered", Code: CodeNoPrincipals},
	}
	for i, resp := range resps {
		enc, err := appendResponse(nil, resp)
		if err != nil {
			t.Fatalf("response %d: encode: %v", i, err)
		}
		got, err := decodeResponse(enc)
		if err != nil {
			t.Fatalf("response %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Errorf("response %d round trip = %+v, want %+v", i, got, resp)
		}
	}
}

// fillDistinct sets every field reachable from v to a non-zero value no
// other field got (counter-derived, so slices of ints come out ascending).
// A kind it does not know fails the test: extend it with the protocol.
func fillDistinct(t *testing.T, v reflect.Value, next *int) {
	t.Helper()
	*next++
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *next))
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*next))
	case reflect.Uint64:
		v.SetUint(uint64(*next))
	case reflect.Float64:
		v.SetFloat(float64(*next) + 0.5)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), next)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(t, v.Field(i), next)
		}
	default:
		t.Fatalf("fillDistinct: no rule for a %s field (%s)", v.Kind(), v.Type())
	}
}

// eachFilledEnvelope calls fn once per payload member of the envelope
// type T (Request or Response), with an envelope whose scalar fields and
// that one member are filled by fillDistinct.
func eachFilledEnvelope[T any](t *testing.T, fn func(member string, env *T)) {
	t.Helper()
	typ := reflect.TypeFor[T]()
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() != reflect.Pointer {
			continue
		}
		env, next := new(T), 0
		v := reflect.ValueOf(env).Elem()
		for j := 0; j < typ.NumField(); j++ {
			switch {
			case j == i:
				v.Field(j).Set(reflect.New(typ.Field(j).Type.Elem()))
				fillDistinct(t, v.Field(j).Elem(), &next)
			case typ.Field(j).Type.Kind() != reflect.Pointer:
				fillDistinct(t, v.Field(j), &next)
			}
		}
		fn(typ.Field(i).Name, env)
	}
}

// payload dereferences the named member of an envelope for printing.
func payload(env any, member string) reflect.Value {
	return reflect.ValueOf(env).Elem().FieldByName(member).Elem()
}

// TestCodecCarriesEveryField fills every member struct of both envelopes
// by reflection and round-trips it. The codec carries exactly the fields
// codec.go names: one added to protocol.go without a codec case comes
// back zero and fails here, not in production.
func TestCodecCarriesEveryField(t *testing.T) {
	eachFilledEnvelope(t, func(member string, req *Request) {
		enc, err := appendRequest(nil, req)
		if err != nil {
			t.Fatalf("Request.%s: encode: %v", member, err)
		}
		got, err := decodeRequest(enc)
		if err != nil {
			t.Fatalf("Request.%s: decode: %v", member, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Errorf("Request.%s round trip = %+v, want %+v", member, payload(got, member), payload(req, member))
		}
	})
	eachFilledEnvelope(t, func(member string, resp *Response) {
		enc, err := appendResponse(nil, resp)
		if err != nil {
			t.Fatalf("Response.%s: encode: %v", member, err)
		}
		got, err := decodeResponse(enc)
		if err != nil {
			t.Fatalf("Response.%s: decode: %v", member, err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Errorf("Response.%s (Err %q, Code %d) round trip = %+v, want %+v", member, got.Err, got.Code, payload(got, member), payload(resp, member))
		}
	})
}

func TestCodecRejectsMalformed(t *testing.T) {
	if _, err := appendRequest(nil, &Request{}); err == nil {
		t.Error("empty request encoded")
	}
	if _, err := decodeRequest(nil); err == nil {
		t.Error("empty request envelope decoded")
	}
	if _, err := decodeRequest([]byte{200}); err == nil {
		t.Error("unknown request kind decoded")
	}
	enc, err := appendRequest(nil, &Request{Ping: &PingRequest{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeRequest(append(enc, 0x01)); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := decodeResponse(nil); err == nil {
		t.Error("empty response envelope decoded")
	}
	enc, err = appendResponse(nil, &Response{Alloc: &AllocReply{Takes: []float64{1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeResponse(enc[:len(enc)-3]); err == nil {
		t.Error("truncated alloc reply decoded")
	}
	if _, err := appendResponse(nil, &Response{Alloc: &AllocReply{Sources: []int{4}, Takes: []float64{1, 2}}}); err == nil {
		t.Error("alloc reply with one source for two takes encoded")
	}
}

// TestAllocReplyLegacyDenseEncodesAsPairs: a reply built the old way —
// nil Sources, Takes indexed by principal id — goes out as the pairs of
// its non-zero entries, so the wire has one form whatever the caller held.
func TestAllocReplyLegacyDenseEncodesAsPairs(t *testing.T) {
	dense := &AllocReply{Takes: []float64{1, 0, 2.5, 0}, Theta: 0.125, Lease: 3}
	pairs := &AllocReply{Sources: []int{0, 2}, Takes: []float64{1, 2.5}, Theta: 0.125, Lease: 3}
	a, err := appendResponse(nil, &Response{Alloc: dense})
	if err != nil {
		t.Fatal(err)
	}
	b, err := appendResponse(nil, &Response{Alloc: pairs})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("dense form encodes to % x, pair form to % x", a, b)
	}
	got, err := decodeResponse(a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Alloc, pairs) {
		t.Fatalf("decoded %+v, want %+v", got.Alloc, pairs)
	}
	if d := got.Alloc.Dense(4); !reflect.DeepEqual(d, dense.Takes) {
		t.Fatalf("Dense(4) = %v, want %v", d, dense.Takes)
	}
	if d := dense.Dense(2); !reflect.DeepEqual(d, []float64{1, 0, 2.5}) {
		t.Fatalf("Dense(2) of a reply reaching principal 2 = %v", d)
	}
}

// TestCodecNoPanicOnGarbage feeds deterministic pseudo-random bytes to
// both decoders: any outcome is fine except a panic, and anything
// accepted must re-encode cleanly (garbage that parses is harmless —
// the transport CRC guards framing).
func TestCodecNoPanicOnGarbage(t *testing.T) {
	state := uint64(0x9e3779b97f4a7c15)
	next := func() byte {
		state = state*6364136223846793005 + 1442695040888963407
		return byte(state >> 56)
	}
	for round := 0; round < 2000; round++ {
		n := int(next()) % 40
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = next()
		}
		if req, err := decodeRequest(buf); err == nil {
			if _, err := appendRequest(nil, req); err != nil {
				t.Fatalf("accepted request %+v failed to re-encode: %v", req, err)
			}
		}
		if resp, err := decodeResponse(buf); err == nil {
			if _, err := appendResponse(nil, resp); err != nil {
				t.Fatalf("accepted response %+v failed to re-encode: %v", resp, err)
			}
		}
	}
}
