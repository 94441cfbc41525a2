package grm

import "time"

// WireBenchResult is the measured cost of carrying one request/response
// exchange through the codec as self-contained messages — no stream
// state carried between messages. That is the unit the transport works
// in: every frame is independently CRC-checked, decodable in isolation,
// and reorderable, which is what makes pipelining and out-of-order
// replies possible.
type WireBenchResult struct {
	NsPerOp float64
}

// benchExchange is the representative traffic one op encodes and
// decodes: a report exchange plus an allocation exchange whose reply
// takes from 4 of 16 principals — two neighbours and two on their own,
// so the run encoding carries both a shared and a single-entry run.
func benchExchange() ([]*Request, []*Response) {
	sources := []int{2, 3, 9, 14}
	takes := []float64{0.5, 0.75, 2.25, 3.5}
	reqs := []*Request{
		{Report: &ReportRequest{Principal: 3, Available: 42.5}},
		{Alloc: &AllocRequest{Principal: 3, Amount: 25}},
	}
	resps := []*Response{
		{Report: &ReportReply{}},
		{Alloc: &AllocReply{Sources: sources, Takes: takes, Theta: 0.8125, Lease: 7, TTL: 30 * time.Second}},
	}
	return reqs, resps
}

// BenchWireCodec measures codec cost for iters self-contained exchanges
// (see WireBenchResult) on the calling goroutine. The unnamed parameter
// is a compile shim for frozen bench/ (ROADMAP item 1f).
func BenchWireCodec(_ WireCodec, iters int) (WireBenchResult, error) {
	iters = max(iters, 1)
	reqs, resps := benchExchange()
	var buf []byte
	// Decoded in place, the way a connection's pooled record and the
	// client's reader decode them.
	var call wireCall
	var reply Response
	var start time.Time
	// Exchange 0 warms up (buffer growth), so the timed ones see steady state.
	for n := 0; n <= iters; n++ {
		if n == 1 {
			start = time.Now()
		}
		for i := range reqs {
			var err error
			if buf, err = appendRequest(buf[:0], reqs[i]); err != nil {
				return WireBenchResult{}, err
			}
			if err = call.decode(buf); err != nil {
				return WireBenchResult{}, err
			}
			if buf, err = appendResponse(buf[:0], resps[i]); err != nil {
				return WireBenchResult{}, err
			}
			if _, err = reply.decode(buf); err != nil {
				return WireBenchResult{}, err
			}
		}
	}
	return WireBenchResult{NsPerOp: float64(time.Since(start).Nanoseconds()) / float64(iters)}, nil
}
