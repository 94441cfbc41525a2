package grm

// Binary envelope layout (transport wire.go documents the frame around
// it). A request is a kind tag followed by that kind's fields in
// declaration order; a response is the error string, then the kind tag
// of its payload (kindNone when the response carries only the error),
// then the payload fields. Every field uses the transport encoding
// primitives — uvarint/zigzag integers, 8-byte little-endian floats,
// length-prefixed strings and slices, takes as wirefmt.AppendTakes spells
// them — so the layout is deterministic byte for byte.

import (
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/grm/transport"
	"repro/internal/wirefmt"
)

// Envelope kind tags. The values are the wire format: never renumber,
// only append.
const (
	kindNone = iota
	kindRegister
	kindReport
	kindShare
	kindRevoke
	kindAlloc
	kindRelease
	kindRenew
	kindCaps
	kindPeers
	kindPing
)

// kind is the envelope tag appendRequest gives req: that of its first
// payload, kindNone when it has none. The payloads are declared in tag
// order, which TestCodecCarriesEveryField holds.
func (req *Request) kind() uint64 {
	set := [...]bool{req.Register != nil, req.Report != nil, req.Share != nil, req.Revoke != nil, req.Alloc != nil,
		req.Release != nil, req.Renew != nil, req.Caps != nil, req.Peers != nil, req.Ping != nil}
	for k, ok := range set {
		if ok {
			return kindRegister + uint64(k)
		}
	}
	return kindNone
}

// appendRequest appends req's binary envelope to dst. Exactly one
// request field must be non-nil.
func appendRequest(dst []byte, req *Request) ([]byte, error) {
	switch {
	case req.Register != nil:
		dst = wirefmt.AppendUvarint(dst, kindRegister)
		dst = wirefmt.AppendString(dst, req.Register.Name)
		dst = wirefmt.AppendFloat64(dst, req.Register.Capacity)
	case req.Report != nil:
		dst = wirefmt.AppendUvarint(dst, kindReport)
		dst = wirefmt.AppendInt(dst, int64(req.Report.Principal))
		dst = wirefmt.AppendFloat64(dst, req.Report.Available)
	case req.Share != nil:
		dst = wirefmt.AppendUvarint(dst, kindShare)
		dst = wirefmt.AppendInt(dst, int64(req.Share.From))
		dst = wirefmt.AppendInt(dst, int64(req.Share.To))
		dst = wirefmt.AppendFloat64(dst, req.Share.Fraction)
		dst = wirefmt.AppendFloat64(dst, req.Share.Quantity)
	case req.Revoke != nil:
		dst = wirefmt.AppendUvarint(dst, kindRevoke)
		dst = wirefmt.AppendInt(dst, int64(req.Revoke.Ticket))
	case req.Alloc != nil:
		dst = wirefmt.AppendUvarint(dst, kindAlloc)
		dst = wirefmt.AppendInt(dst, int64(req.Alloc.Principal))
		dst = wirefmt.AppendFloat64(dst, req.Alloc.Amount)
	case req.Release != nil:
		dst = wirefmt.AppendUvarint(dst, kindRelease)
		dst = wirefmt.AppendInt(dst, int64(req.Release.Lease))
	case req.Renew != nil:
		dst = wirefmt.AppendUvarint(dst, kindRenew)
		dst = wirefmt.AppendInt(dst, int64(req.Renew.Lease))
	case req.Caps != nil:
		dst = wirefmt.AppendUvarint(dst, kindCaps)
	case req.Peers != nil:
		dst = wirefmt.AppendUvarint(dst, kindPeers)
	case req.Ping != nil:
		dst = wirefmt.AppendUvarint(dst, kindPing)
	default:
		return nil, fmt.Errorf("grm: encode request with no payload")
	}
	return dst, nil
}

// wireCall is one request off a connection, decoded in place: the
// envelope and one value of each payload it can point at, so a decode
// allocates nothing but a registered name. Records are pooled. The
// connection owns one from DecodeRequest until AppendResponse has encoded
// its reply and put it back, and the shard router holds one across the
// shard's Handle it passes it to; so nothing the server keeps may point
// into a request (allocJob copies its AllocRequest) and a tap must not
// retain the envelopes it is shown.
type wireCall struct {
	req      Request
	resp     *Response
	register RegisterRequest
	report   ReportRequest
	share    ShareRequest
	revoke   RevokeRequest
	alloc    AllocRequest
	release  ReleaseRequest
	renew    RenewRequest
}

var wireCalls = sync.Pool{New: func() any { return new(wireCall) }}

// decode parses one binary request envelope into c, replacing the request
// c held: only the decoded kind's payload pointer is set.
func (c *wireCall) decode(data []byte) error {
	d := wirefmt.NewDec(data)
	c.req = Request{}
	switch kind := d.Uvarint(); kind {
	case kindRegister:
		c.register, c.req.Register = RegisterRequest{Name: d.String(), Capacity: d.Float64()}, &c.register
	case kindReport:
		c.report, c.req.Report = ReportRequest{Principal: int(d.Int()), Available: d.Float64()}, &c.report
	case kindShare:
		c.share, c.req.Share = ShareRequest{From: int(d.Int()), To: int(d.Int()), Fraction: d.Float64(), Quantity: d.Float64()}, &c.share
	case kindRevoke:
		c.revoke, c.req.Revoke = RevokeRequest{Ticket: int(d.Int())}, &c.revoke
	case kindAlloc:
		c.alloc, c.req.Alloc = AllocRequest{Principal: int(d.Int()), Amount: d.Float64()}, &c.alloc
	case kindRelease:
		c.release, c.req.Release = ReleaseRequest{Lease: int(d.Int())}, &c.release
	case kindRenew:
		c.renew, c.req.Renew = RenewRequest{Lease: int(d.Int())}, &c.renew
	case kindCaps:
		c.req.Caps = &CapsRequest{}
	case kindPeers:
		c.req.Peers = &PeersRequest{}
	case kindPing:
		c.req.Ping = &PingRequest{}
	default:
		if err := d.Err(); err != nil {
			return err
		}
		return fmt.Errorf("grm: decode request: unknown kind %d", kind)
	}
	if err := d.Done(); err != nil {
		return fmt.Errorf("grm: decode request: %w", err)
	}
	return nil
}

// appendResponse appends resp's binary envelope to dst.
func appendResponse(dst []byte, resp *Response) ([]byte, error) {
	dst = wirefmt.AppendString(dst, resp.Err)
	dst = wirefmt.AppendUvarint(dst, resp.Code)
	switch {
	case resp.Register != nil:
		dst = wirefmt.AppendUvarint(dst, kindRegister)
		dst = wirefmt.AppendInt(dst, int64(resp.Register.Principal))
	case resp.Report != nil:
		dst = wirefmt.AppendUvarint(dst, kindReport)
	case resp.Share != nil:
		dst = wirefmt.AppendUvarint(dst, kindShare)
		dst = wirefmt.AppendInt(dst, int64(resp.Share.Ticket))
	case resp.Revoke != nil:
		dst = wirefmt.AppendUvarint(dst, kindRevoke)
	case resp.Alloc != nil:
		dst = wirefmt.AppendUvarint(dst, kindAlloc)
		var err error
		if dst, err = wirefmt.AppendTakes(dst, resp.Alloc.Sources, resp.Alloc.Takes); err != nil {
			return nil, fmt.Errorf("grm: encode alloc reply: %w", err)
		}
		dst = wirefmt.AppendFloat64(dst, resp.Alloc.Theta)
		dst = wirefmt.AppendInt(dst, int64(resp.Alloc.Lease))
		dst = wirefmt.AppendInt(dst, int64(resp.Alloc.TTL))
	case resp.Release != nil:
		dst = wirefmt.AppendUvarint(dst, kindRelease)
	case resp.Renew != nil:
		dst = wirefmt.AppendUvarint(dst, kindRenew)
		dst = wirefmt.AppendInt(dst, int64(resp.Renew.TTL))
	case resp.Caps != nil:
		dst = wirefmt.AppendUvarint(dst, kindCaps)
		dst = wirefmt.AppendFloat64s(dst, resp.Caps.Available)
		dst = wirefmt.AppendFloat64s(dst, resp.Caps.Capacities)
	case resp.Peers != nil:
		dst = wirefmt.AppendUvarint(dst, kindPeers)
		dst = wirefmt.AppendUvarint(dst, uint64(len(resp.Peers.Names)))
		for _, name := range resp.Peers.Names {
			dst = wirefmt.AppendString(dst, name)
		}
	case resp.Ping != nil:
		dst = wirefmt.AppendUvarint(dst, kindPing)
	default:
		dst = wirefmt.AppendUvarint(dst, kindNone)
	}
	return dst, nil
}

// allocReplyBox is a decoded allocation reply in one allocation, the pairs
// of a grant of up to grantInline sources included.
type allocReplyBox struct {
	reply   AllocReply
	sources [grantInline]int
	takes   [grantInline]float64
}

// decode parses one binary response envelope into resp, replacing what
// it held, and returns the kind of its payload (kindNone when it has
// none). The payloads are fresh: a caller may keep them.
func (resp *Response) decode(data []byte) (uint64, error) {
	d := wirefmt.NewDec(data)
	*resp = Response{Err: d.String()}
	resp.Code = d.Uvarint()
	kind := d.Uvarint()
	switch kind {
	case kindNone:
	case kindRegister:
		resp.Register = &RegisterReply{Principal: int(d.Int())}
	case kindReport:
		resp.Report = &ReportReply{}
	case kindShare:
		resp.Share = &ShareReply{Ticket: int(d.Int())}
	case kindRevoke:
		resp.Revoke = &ReportReply{}
	case kindAlloc:
		b := new(allocReplyBox)
		if src, takes := d.AppendTakes(b.sources[:0], b.takes[:0]); len(src) > 0 {
			b.reply.Sources, b.reply.Takes = src[:len(src):len(src)], takes[:len(takes):len(takes)]
		}
		b.reply.Theta, b.reply.Lease, b.reply.TTL = d.Float64(), int(d.Int()), d.Duration()
		resp.Alloc = &b.reply
	case kindRelease:
		resp.Release = &ReportReply{}
	case kindRenew:
		resp.Renew = &RenewReply{TTL: d.Duration()}
	case kindCaps:
		resp.Caps = &CapsReply{Available: d.Float64s(), Capacities: d.Float64s()}
	case kindPeers:
		n := d.Uvarint()
		reply := &PeersReply{}
		if n > 0 && d.Err() == nil {
			// Cap the preallocation: each name costs at least one byte, so
			// a count beyond the envelope length is malformed anyway and
			// the append loop below stops at the first failed read.
			reply.Names = make([]string, 0, min(n, uint64(len(data))))
			for i := uint64(0); i < n && d.Err() == nil; i++ {
				reply.Names = append(reply.Names, d.String())
			}
		}
		resp.Peers = reply
	case kindPing:
		resp.Ping = &PingReply{}
	default:
		if err := d.Err(); err != nil {
			return 0, err
		}
		return 0, fmt.Errorf("grm: decode response: unknown kind %d", kind)
	}
	if err := d.Done(); err != nil {
		return 0, fmt.Errorf("grm: decode response: %w", err)
	}
	return kind, nil
}

// binaryCodec adapts the envelope codec to the transport's Codec
// interface for the server side of the connection. A request travels as
// its pooled *wireCall, which the handler answers in place (serveRequests)
// and AppendResponse recycles once the reply is encoded.
type binaryCodec struct{}

// DecodeRequest implements transport.Codec.
func (binaryCodec) DecodeRequest(data []byte) (any, error) {
	c := wireCalls.Get().(*wireCall)
	if err := c.decode(data); err != nil {
		wireCalls.Put(c)
		return nil, err
	}
	return c, nil
}

// AppendResponse implements transport.Codec.
func (binaryCodec) AppendResponse(dst []byte, resp any) ([]byte, error) {
	c := resp.(*wireCall)
	dst, err := appendResponse(dst, c.resp)
	c.resp = nil
	wireCalls.Put(c)
	return dst, err
}

// serveRequests is the GRM's connection plane, for a Server or a Sharded
// front: handle answers every request decoded off a connection.
func serveRequests(handle func(*Request) *Response, logger *log.Logger) *transport.Server {
	return transport.NewServer(nil, transport.HandlerFunc(func(req any) any {
		c := req.(*wireCall)
		c.resp = handle(&c.req)
		return c
	}), transport.Options{WriteTimeout: 30 * time.Second, Logger: logger, Codec: binaryCodec{}})
}
