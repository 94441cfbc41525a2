// Package b is the clean wiretag corpus: the codec matches its manifest
// exactly, so the analyzer must stay silent.
package b

type Request struct {
	Ping *PingRequest
}

type PingRequest struct{ Seq int }

type Response struct {
	Err  string
	Ping *PingReply
}

type PingReply struct {
	Seq  int
	At   []int
	Vals []float64
}

const (
	kindNone = iota
	kindPing
)

func AppendUvarint(dst []byte, v uint64) []byte { return dst }
func AppendString(dst []byte, s string) []byte  { return dst }
func AppendInt(dst []byte, v int64) []byte      { return dst }

func AppendSparseFloat64s(dst []byte, idx []int, vals []float64) []byte { return dst }

func appendRequest(dst []byte, req *Request) ([]byte, error) {
	switch {
	case req.Ping != nil:
		dst = AppendUvarint(dst, kindPing)
		dst = AppendInt(dst, int64(req.Ping.Seq))
	}
	return dst, nil
}

func appendResponse(dst []byte, resp *Response) ([]byte, error) {
	dst = AppendString(dst, resp.Err)
	switch {
	case resp.Ping != nil:
		dst = AppendUvarint(dst, kindPing)
		dst = AppendInt(dst, int64(resp.Ping.Seq))
		dst = AppendSparseFloat64s(dst, resp.Ping.At, resp.Ping.Vals)
	default:
		dst = AppendUvarint(dst, kindNone)
	}
	return dst, nil
}
