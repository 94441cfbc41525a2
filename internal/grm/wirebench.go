package grm

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"runtime"
	"time"
)

// WireBenchResult is the measured cost of carrying one request/response
// exchange in a wire codec as a self-contained message — no stream
// state carried between messages. That is the unit the binary transport
// works in: every frame is independently CRC-checked, decodable in
// isolation, and reorderable, which is what makes pipelining and
// out-of-order replies possible. Gob cannot produce a self-contained
// message without re-transmitting its type descriptors, and that
// per-message setup is exactly the cost the binary codec removes.
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
// populate the codec section of BENCH_transport.json.
func BenchWireCodec(c WireCodec, iters int) (WireBenchResult, error) {
	if iters <= 0 {
		iters = 1
	}
	reqs, resps := benchExchange()
	var oneOp func() (int, error)
	switch c {
	case CodecBinary:
		var buf []byte
		oneOp = func() (int, error) {
			msgBytes := 0
			for i := range reqs {
				var err error
				if buf, err = appendRequest(buf[:0], reqs[i]); err != nil {
					return 0, err
				}
				msgBytes += len(buf)
				if _, err = decodeRequest(buf); err != nil {
					return 0, err
				}
				if buf, err = appendResponse(buf[:0], resps[i]); err != nil {
					return 0, err
				}
				msgBytes += len(buf)
				if _, err = decodeResponse(buf); err != nil {
					return 0, err
				}
			}
			return msgBytes, nil
		}
	case CodecGob:
		var buf bytes.Buffer
		oneOp = func() (int, error) {
			msgBytes := 0
			encode := func(v any) error {
				buf.Reset()
				if err := gob.NewEncoder(&buf).Encode(v); err != nil {
					return err
				}
				msgBytes += buf.Len()
				return nil
			}
			for i := range reqs {
				if err := encode(reqs[i]); err != nil {
					return 0, err
				}
				var req Request
				if err := gob.NewDecoder(&buf).Decode(&req); err != nil {
					return 0, err
				}
				if err := encode(resps[i]); err != nil {
					return 0, err
				}
				var resp Response
				if err := gob.NewDecoder(&buf).Decode(&resp); err != nil {
					return 0, err
				}
			}
			return msgBytes, nil
		}
	default:
		return WireBenchResult{}, fmt.Errorf("grm: BenchWireCodec: codec %v not measurable", c)
	}

	// Warm up internal caches (gob's type registry, buffer growth) so
	// the measured window sees steady state.
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
