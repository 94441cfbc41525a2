package grm

import (
	"bytes"
	"math"
	"testing"
	"time"
)

// FuzzDecodeEnvelope feeds arbitrary bytes to both binary envelope
// decoders — the bytes a peer controls once a frame's CRC has matched.
// Neither decoder may panic or size an allocation by a count the input
// cannot back, and the wire has one spelling per message: whatever a
// decoder accepts re-encodes to the bytes it was decoded from. An
// accepted allocation reply is pairs — as many sources as takes, the
// sources strictly ascending and representable.
func FuzzDecodeEnvelope(f *testing.F) {
	reqs, resps := benchExchange()
	resps = append(resps,
		&Response{Alloc: &AllocReply{Theta: 1, Lease: 2}},                                           // takes nothing
		&Response{Alloc: &AllocReply{Sources: []int{0, 1, 2, 3}, Takes: []float64{1, 2, 3, 4}}},     // one run: a dense reply
		&Response{Alloc: &AllocReply{Sources: []int{7, 4096, 1 << 30}, Takes: []float64{1, 2, 3}}},  // isolated, wide gaps
		&Response{Alloc: &AllocReply{Takes: []float64{0, 5, 0, 0, 6, 7}, TTL: time.Second}},         // the legacy dense form
		&Response{Err: "grm: alloc: refused", Code: CodeNoPrincipals},                               // error only
		&Response{Caps: &CapsReply{Available: []float64{1, 2}, Capacities: []float64{3, 4}}},        // the other float slices
		&Response{Peers: &PeersReply{Names: []string{"a", "", "clusterA/node7"}}},                   // counted strings
		&Response{Err: "partial", Alloc: &AllocReply{Sources: []int{3}, Takes: []float64{math.Pi}}}, // error beside a payload
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
	f.Add([]byte{0x00, 0x00, 0x05, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // alloc reply claiming 2^63 takes
	f.Add([]byte{0x00, 0x00, 0x05, 0x01, 0x80, 0x00, 0x01})                               // padded gap uvarint

	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := decodeRequest(data); err == nil {
			enc, err := appendRequest(nil, req)
			if err != nil {
				t.Fatalf("accepted request %+v does not re-encode: %v", req, err)
			}
			if !bytes.Equal(enc, data) {
				t.Fatalf("request % x re-encodes to % x", data, enc)
			}
		}
		resp, err := decodeResponse(data)
		if err != nil {
			return
		}
		// Every decoded element took at least one input byte (a float
		// eight), so nothing the decoder sized can exceed the input.
		budget := len(data)
		if a := resp.Alloc; a != nil {
			if len(a.Sources) != len(a.Takes) {
				t.Fatalf("%d sources for %d takes", len(a.Sources), len(a.Takes))
			}
			if 8*cap(a.Sources) > budget || 8*cap(a.Takes) > budget {
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
		enc, err := appendResponse(nil, resp)
		if err != nil {
			t.Fatalf("accepted response %+v does not re-encode: %v", resp, err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("response % x re-encodes to % x", data, enc)
		}
	})
}
