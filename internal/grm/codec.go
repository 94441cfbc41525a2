package grm

// Binary envelope layout (transport wire.go documents the frame around
// it). A request is a kind tag followed by that kind's fields in
// declaration order; a response is the error string, then the kind tag
// of its payload (kindNone when the response carries only the error),
// then the payload fields. Every field uses the transport encoding
// primitives — uvarint/zigzag integers, 8-byte little-endian floats,
// length-prefixed strings and slices, run-length encoded sparse vectors —
// so the layout is deterministic byte for byte.

import (
	"fmt"

	"repro/internal/store"
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

// decodeRequest parses one binary request envelope.
func decodeRequest(data []byte) (*Request, error) {
	d := wirefmt.NewDec(data)
	req := &Request{}
	switch kind := d.Uvarint(); kind {
	case kindRegister:
		req.Register = &RegisterRequest{Name: d.String(), Capacity: d.Float64()}
	case kindReport:
		req.Report = &ReportRequest{Principal: int(d.Int()), Available: d.Float64()}
	case kindShare:
		req.Share = &ShareRequest{From: int(d.Int()), To: int(d.Int()), Fraction: d.Float64(), Quantity: d.Float64()}
	case kindRevoke:
		req.Revoke = &RevokeRequest{Ticket: int(d.Int())}
	case kindAlloc:
		req.Alloc = &AllocRequest{Principal: int(d.Int()), Amount: d.Float64()}
	case kindRelease:
		req.Release = &ReleaseRequest{Lease: int(d.Int())}
	case kindRenew:
		req.Renew = &RenewRequest{Lease: int(d.Int())}
	case kindCaps:
		req.Caps = &CapsRequest{}
	case kindPeers:
		req.Peers = &PeersRequest{}
	case kindPing:
		req.Ping = &PingRequest{}
	default:
		if err := d.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("grm: decode request: unknown kind %d", kind)
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("grm: decode request: %w", err)
	}
	return req, nil
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
		sources, takes := store.SparseTakes(resp.Alloc.Sources, resp.Alloc.Takes)
		if len(sources) != len(takes) {
			return nil, fmt.Errorf("grm: encode alloc reply with %d sources for %d takes", len(sources), len(takes))
		}
		dst = wirefmt.AppendSparseFloat64s(dst, sources, takes)
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

// decodeResponse parses one binary response envelope.
func decodeResponse(data []byte) (*Response, error) {
	d := wirefmt.NewDec(data)
	resp := &Response{Err: d.String()}
	resp.Code = d.Uvarint()
	switch kind := d.Uvarint(); kind {
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
		reply := &AllocReply{}
		reply.Sources, reply.Takes = d.SparseFloat64s()
		reply.Theta, reply.Lease, reply.TTL = d.Float64(), int(d.Int()), d.Duration()
		resp.Alloc = reply
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
			return nil, err
		}
		return nil, fmt.Errorf("grm: decode response: unknown kind %d", kind)
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("grm: decode response: %w", err)
	}
	return resp, nil
}

// binaryCodec adapts the envelope codec to the transport's Codec
// interface for the server side of the connection.
type binaryCodec struct{}

// DecodeRequest implements transport.Codec.
func (binaryCodec) DecodeRequest(data []byte) (any, error) { return decodeRequest(data) }

// AppendResponse implements transport.Codec.
func (binaryCodec) AppendResponse(dst []byte, resp any) ([]byte, error) {
	r, ok := resp.(*Response)
	if !ok {
		return nil, fmt.Errorf("grm: encode response of type %T", resp)
	}
	return appendResponse(dst, r)
}
