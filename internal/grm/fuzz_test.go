package grm

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"
)

// FuzzDecodeEnvelope feeds arbitrary bytes to both binary envelope
// decoders — the bytes a peer controls once a frame's CRC has matched.
// Neither decoder may panic or size an allocation by a count the input
// cannot back, and the wire has one spelling per message: whatever a
// decoder accepts re-encodes to the bytes it was decoded from. An
// accepted allocation reply is pairs — as many sources as takes, the
// sources strictly ascending and representable. Decoding in place into a
// record a previous input left dirty — a connection's pooled wireCall, the
// client reader's Response — must read exactly what a fresh decode reads:
// a stale payload pointer would misroute the request.
func FuzzDecodeEnvelope(f *testing.F) {
	reqs, resps := benchExchange()
	resps = append(resps,
		&Response{Alloc: &AllocReply{Theta: 1, Lease: 2}},                                           // takes nothing
		&Response{Alloc: &AllocReply{Sources: []int{0, 1, 2, 3}, Takes: []float64{1, 2, 3, 4}}},     // one run: a dense reply
		&Response{Alloc: &AllocReply{Sources: []int{7, 4096, 1 << 30}, Takes: []float64{1, 2, 3}}},  // isolated, wide gaps
		&Response{Alloc: &AllocReply{Sources: []int{1, 4, 5}, Takes: []float64{5, 6, 7}, TTL: 1}},   // one alone, then a run
		&Response{Err: "grm: alloc: refused", Code: CodeNoPrincipals},                               // error only
		&Response{Caps: &CapsReply{Available: []float64{1, 2}, Capacities: []float64{3, 4}}},        // the other float slices
		&Response{Peers: &PeersReply{Names: []string{"a", "", "clusterA/node7"}}},                   // counted strings
		&Response{Err: "partial", Alloc: &AllocReply{Sources: []int{3}, Takes: []float64{math.Pi}}}, // error beside a payload
		// Trimmed takes: whole numbers, a far ring member's, -0 and +Inf.
		&Response{Alloc: &AllocReply{Sources: []int{0, 2, 3}, Takes: []float64{40, math.Float64frombits(0x3dc4000000000000), 2.5}, Lease: 9}},
		&Response{Alloc: &AllocReply{Sources: []int{1, 6}, Takes: []float64{math.Copysign(0, -1), math.Inf(1)}, TTL: time.Second}},
		&Response{Alloc: ringReply()}, // 63 sources, most of them trimmed
	)
	for _, req := range reqs {
		enc, err := appendRequest(nil, req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	for _, resp := range resps {
		enc, err := appendResponse(nil, resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)-1]) // torn
	}
	f.Add([]byte{})
	f.Add([]byte{0x0a, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // alloc reply claiming 2^63 takes
	f.Add([]byte{0x0a, 0x01, 0x80, 0x00, 0x01})                               // padded gap uvarint
	f.Add([]byte{0x01, 0x00, 0x00})                                           // failed, with no error
	f.Add([]byte{0x08, 0x01})                                                 // an acknowledgement with a trailing byte

	// Dirty from the start: every payload of the reused records is set.
	var call wireCall
	var reply Response
	eachFilledEnvelope(f, func(_ string, req *Request) {
		enc, _ := appendRequest(nil, req)
		call.decode(enc)
	})
	eachFilledEnvelope(f, func(_ string, resp *Response) {
		enc, _ := appendResponse(nil, resp)
		reply.decode(enc)
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeRequest(data)
		if reuseErr := call.decode(data); (reuseErr == nil) != (err == nil) {
			t.Fatalf("request % x: a fresh decode says %v, one in place %v", data, err, reuseErr)
		}
		if err == nil {
			sameEnvelope(t, data, req, &call.req, appendRequest)
		}
		resp, err := decodeResponse(data)
		if _, reuseErr := reply.decode(data); (reuseErr == nil) != (err == nil) {
			t.Fatalf("response % x: a fresh decode says %v, one in place %v", data, err, reuseErr)
		}
		if err != nil {
			return
		}
		// Every decoded element took at least one input byte (a float
		// eight), and a take at least half of one (its nibble in the
		// trimmed form), so nothing the decoder sized can exceed the input.
		budget := len(data)
		if a := resp.Alloc; a != nil {
			if len(a.Sources) != len(a.Takes) {
				t.Fatalf("%d sources for %d takes", len(a.Sources), len(a.Takes))
			}
			if cap(a.Sources) > 2*budget || cap(a.Takes) > 2*budget {
				t.Fatalf("alloc reply sized for %d sources and %d takes from %d bytes", cap(a.Sources), cap(a.Takes), budget)
			}
			for k, p := range a.Sources {
				if p < 0 || (k > 0 && p <= a.Sources[k-1]) {
					t.Fatalf("sources %v are not ascending principal ids", a.Sources)
				}
			}
		}
		if c := resp.Caps; c != nil && 8*(cap(c.Available)+cap(c.Capacities)) > budget {
			t.Fatalf("caps reply sized for %d+%d floats from %d bytes", cap(c.Available), cap(c.Capacities), budget)
		}
		if p := resp.Peers; p != nil && cap(p.Names) > budget {
			t.Fatalf("peers reply sized for %d names from %d bytes", cap(p.Names), budget)
		}
		sameEnvelope(t, data, resp, &reply, appendResponse)
	})
}

// ringReply is a grant shaped like ring64's: 63 sources in two runs
// around requester 32, the takes falling by 0.4 a hop and rounded to
// float32, so that each ends in zero bytes.
func ringReply() *AllocReply {
	r := &AllocReply{Theta: 0.5, Lease: 77, TTL: time.Minute}
	for p := 0; p < 64; p++ {
		if hops := 32 - min(p, 64-p); hops > 0 {
			r.Sources = append(r.Sources, p)
			r.Takes = append(r.Takes, float64(float32(12*math.Pow(0.4, float64(hops)))))
		}
	}
	return r
}

// sameEnvelope holds an accepted envelope, decoded fresh and in place, to
// the input: both re-encode to data, and both set the same payload
// pointers. That is DeepEqual between the two, save that a NaN the input
// carries equals itself.
func sameEnvelope[T any](t *testing.T, data []byte, fresh, inPlace *T, encode func([]byte, *T) ([]byte, error)) {
	t.Helper()
	for _, env := range []*T{fresh, inPlace} {
		enc, err := encode(nil, env)
		if err != nil {
			t.Fatalf("accepted %+v does not re-encode: %v", env, err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("% x re-encodes to % x", data, enc)
		}
	}
	f, p := reflect.ValueOf(fresh).Elem(), reflect.ValueOf(inPlace).Elem()
	for i := 0; i < f.NumField(); i++ {
		if f.Field(i).Kind() == reflect.Pointer && f.Field(i).IsNil() != p.Field(i).IsNil() {
			t.Fatalf("% x: decoded in place, %s is set %v; decoded fresh, %v", data, f.Type().Field(i).Name, !p.Field(i).IsNil(), !f.Field(i).IsNil())
		}
	}
}
