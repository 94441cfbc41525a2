package grm

import (
	"runtime"
	"time"
)

// WireBenchResult is the measured cost of carrying one request/response
// exchange through the codec as self-contained messages — no stream
// state carried between messages. That is the unit the transport works
// in: every frame is independently CRC-checked, decodable in isolation,
// and reorderable, which is what makes pipelining and out-of-order
// replies possible.
type WireBenchResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerMsg int     `json:"bytes_per_msg"`
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
// (see WireBenchResult) on the calling goroutine. cmd/loadgen uses it to
// populate the codec section of BENCH_transport.json. The unnamed
// parameter is a compile shim for frozen bench/ (ROADMAP item 1f).
func BenchWireCodec(_ WireCodec, iters int) (WireBenchResult, error) {
	if iters <= 0 {
		iters = 1
	}
	reqs, resps := benchExchange()
	var buf []byte
	// Decoded in place, the way a connection's pooled record and the
	// client's reader decode them.
	var call wireCall
	var reply Response
	oneOp := func() (int, error) {
		msgBytes := 0
		for i := range reqs {
			var err error
			if buf, err = appendRequest(buf[:0], reqs[i]); err != nil {
				return 0, err
			}
			msgBytes += len(buf)
			if err = call.decode(buf); err != nil {
				return 0, err
			}
			if buf, err = appendResponse(buf[:0], resps[i]); err != nil {
				return 0, err
			}
			msgBytes += len(buf)
			if _, err = reply.decode(buf); err != nil {
				return 0, err
			}
		}
		return msgBytes, nil
	}

	// Warm up (buffer growth) so the measured window sees steady state.
	msgBytes, err := oneOp()
	if err != nil {
		return WireBenchResult{}, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := oneOp(); err != nil {
			return WireBenchResult{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return WireBenchResult{
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(iters),
		BytesPerMsg: msgBytes / (2 * len(reqs)),
	}, nil
}
