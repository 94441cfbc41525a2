//go:build !race

package transport_test

import (
	"net"
	"testing"

	"repro/internal/grm/transport"
	"repro/internal/wirefmt"
)

// byteEchoes are the envelopes of byteCodec: one record per byte value,
// read-only, so decoding a request and answering it allocate nothing.
var byteEchoes = func() (recs [256]echoReq) {
	for i := range recs {
		recs[i].N = i
	}
	return recs
}()

// byteCodec carries a one-byte envelope as a pointer into byteEchoes.
type byteCodec struct{}

func (byteCodec) DecodeRequest(data []byte) (any, error) {
	d := wirefmt.NewDec(data)
	b := d.Byte()
	if err := d.Done(); err != nil {
		return nil, err
	}
	return &byteEchoes[b], nil
}

func (byteCodec) AppendResponse(dst []byte, resp any) ([]byte, error) {
	return append(dst, byte(resp.(*echoReq).N)), nil
}

// TestPipelinedFrameAllocs pins the connection plane at nothing: a burst
// of pipelined frames through a Server — read, decoded, handed to a
// handler worker, answered, framed and flushed — allocates only what the
// codec and the handler do, and these allocate nothing. Workers are
// started once, not per request. The race detector's instrumentation
// allocates, so the race legs skip this file.
func TestPipelinedFrameAllocs(t *testing.T) {
	srv := transport.NewServer(nil, transport.HandlerFunc(func(req any) any {
		return &byteEchoes[(req.(*echoReq).N+1)%len(byteEchoes)]
	}), transport.Options{Codec: byteCodec{}})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	_, fw, fr := dialBinary(t, l.Addr().String())
	const burst = 8
	var id uint64
	frames := func() {
		for i := 0; i < burst; i++ {
			id++
			if err := fw.WriteFrame(id, func(dst []byte) ([]byte, error) { return append(dst, byte(id)), nil }); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < burst; i++ {
			got, envelope, err := fr.ReadFrame()
			if err != nil {
				t.Fatal(err)
			}
			if len(envelope) != 1 || envelope[0] != byte(got)+1 {
				t.Fatalf("frame %d answered with % x", got, envelope)
			}
		}
	}
	for i := 0; i < 20; i++ {
		frames()
	}
	got := testing.AllocsPerRun(200, frames) / burst
	t.Logf("a pipelined frame makes %v allocations", got)
	if got > 0 {
		t.Fatalf("a pipelined frame makes %v allocations, want none", got)
	}
}
