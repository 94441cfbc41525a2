package grm

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/grm/transport"
	"repro/internal/store"
)

// The byte pins. Beside the allocation pins they hold what one exchange
// and one journaled transition cost in bytes: a change that grows a frame
// header, a reply prelude or a record fails here by name, not only as a
// bench's bytes per operation. Change a pin only with a deliberate,
// versioned change of format, and the tables of DESIGN.md §5b and §7b
// with it.

// TestWireFrameBytes pins one request frame and one reply frame of every
// kind as a connection carries them, request id 1: the uvarint length,
// the CRC, the id, then the envelope. A success reply leads with its kind
// shifted left by one; a failed one sets the low bit and carries its
// error and code. Grants are pinned from one source and from the 63
// sources of a ring of 64.
func TestWireFrameBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		env  any
		want string
	}{
		{"register request", &Request{Register: &RegisterRequest{Name: "n1", Capacity: 100}}, "0d762deafa0101026e310000000000005940"},
		{"report request", &Request{Report: &ReportRequest{Principal: 3, Available: 42.5}}, "0b8bb0ae560102060000000000404540"},
		{"share request", &Request{Share: &ShareRequest{From: 3, To: 5, Fraction: 0.25}}, "14f4c52d5b0103060a000000000000d03f0000000000000000"},
		{"revoke request", &Request{Revoke: &RevokeRequest{Ticket: 9}}, "0369075669010412"},
		{"alloc request", &Request{Alloc: &AllocRequest{Principal: 3, Amount: 25}}, "0bc81062470105060000000000003940"},
		{"release request", &Request{Release: &ReleaseRequest{Lease: 7}}, "03a439614f01060e"},
		{"renew request", &Request{Renew: &RenewRequest{Lease: 7}}, "03e5087a5601070e"},
		{"caps request", &Request{Caps: &CapsRequest{}}, "028cab19560108"},
		{"peers request", &Request{Peers: &PeersRequest{}}, "021a9b1e210109"},
		{"ping request", &Request{Ping: &PingRequest{}}, "02a0ca17b8010a"},

		{"register reply", &Response{Register: &RegisterReply{Principal: 3}}, "039274d625010206"},
		{"report reply", &Response{Report: &ReportReply{}}, "02a7e7af5f0104"},
		{"share reply", &Response{Share: &ShareReply{Ticket: 9}}, "03eb65605b010612"},
		{"revoke reply", &Response{Revoke: &ReportReply{}}, "028cab19560108"},
		{"alloc reply, one source", &Response{Alloc: &AllocReply{Sources: []int{3}, Takes: []float64{25}, Theta: 1, Lease: 7, TTL: 30 * time.Second}}, "175c4bdbcd010a030203013940000000000000f03f0e80b09dc2df01"},
		{"alloc reply, ring of 64", &Response{Alloc: ringReply()}, "e202ab2627d8010a7f55545455554445455455555545555555555555545555554554544455554545050020e09a78833da0c156983d726cae3d40c703c33db9c4d73d60e7b5ed3da0b091023ec01c36173ee0a3032d3e804622423ed8aa563e8e556c3ec078b5813ed722963ec08cabab3e384bc13e069ed53e608705eb3ea074e3003fc0511c153f4066632a3fe01f7e403fe0a79d543fe011c5693f202b1b803ff621943f80732aa93f401075bf3f402aa9d33fc07493e83fe051b8fe3f4033331340011f4033331340e051b8fe3fc07493e83f402aa9d33f401075bf3f80732aa93ff621943f202b1b803fe011c5693fe0a79d543fe01f7e403f4066632a3fc0511c153fa074e3003f608705eb3e069ed53e384bc13ec08cabab3ed722963ec078b5813e8e556c3ed8aa563e804622423ee0a3032d3ec01c36173ea0b091023e60e7b5ed3db9c4d73d40c703c33d726cae3da0c156983d000000000000e03f9a0180e0ba84bf03"},
		{"release reply", &Response{Release: &ReportReply{}}, "02956f7451010c"},
		{"renew reply", &Response{Renew: &RenewReply{TTL: 30 * time.Second}}, "08772a665b010e80b09dc2df01"},
		{"caps reply", &Response{Caps: &CapsReply{Available: []float64{40, 12.5}, Capacities: []float64{100, 50}}}, "24233782a4011002000000000000444000000000000029400200000000000059400000000000004940"},
		{"peers reply", &Response{Peers: &PeersReply{Names: []string{"n0", "n1"}}}, "096925b66a011202026e30026e31"},
		{"ping reply", &Response{Ping: &PingReply{}}, "02c3f718420114"},
		{"error reply", &Response{Err: "grm: no lease 7"}, "139c6c757701010f67726d3a206e6f206c65617365203700"},
		{"coded error reply", &Response{Err: "grm: alloc: no principals registered", Code: CodeNoPrincipals}, "28a802a15a01012467726d3a20616c6c6f633a206e6f207072696e636970616c73207265676973746572656401"},
	} {
		var buf bytes.Buffer
		err := transport.NewFrameWriter(&buf).WriteFrame(1, func(dst []byte) ([]byte, error) {
			if req, ok := tc.env.(*Request); ok {
				return appendRequest(dst, req)
			}
			return appendResponse(dst, tc.env.(*Response))
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != tc.want {
			t.Errorf("%s: %d bytes\n%s\nwant %d bytes\n%s", tc.name, buf.Len(), got, len(tc.want)/2, tc.want)
		}
	}
}

// TestWALRecordBytes pins one write-ahead-log record of every kind as a
// FileLog appends it behind the file magic: the uvarint length, the CRC,
// then the kind byte, the seq and the kind's fields.
func TestWALRecordBytes(t *testing.T) {
	dir := t.TempDir()
	l, err := store.OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	walPath := filepath.Join(dir, "wal.log")
	size := func() int {
		t.Helper()
		info, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		return int(info.Size())
	}
	const expires = 1_000_003_600_000_000_000
	for i, tc := range []struct {
		rec  store.Record
		want string
	}{
		{store.Record{Kind: store.KindSnapshotLoad, Snapshot: []byte(`{}`)}, "05fbbd5de90264027b7d"},
		{store.Record{Kind: store.KindRegister, Principal: 3, Name: "n3", Capacity: 100}, "0e294660cc036506026e330000000000005940"},
		{store.Record{Kind: store.KindReport, Principal: 3, Available: 42.5}, "0bc3b8f5ff0466060000000000404540"},
		{store.Record{Kind: store.KindShare, From: 3, To: 5, Fraction: 0.25, Ticket: 9}, "15fa9a20e80567060a000000000000d03f000000000000000012"},
		{store.Record{Kind: store.KindRevoke, Ticket: 9}, "03473551a5066812"},
		{store.Record{Kind: store.KindAlloc, Principal: 3, Amount: 25, Lease: 7, Sources: []int{3}, Takes: []float64{25}, Expires: expires}, "1c11801e3287690600000000000039400e0302030139408080e581bbfedce01b00"},
		{store.Record{Kind: store.KindRelease, Lease: 7}, "048b94333f086a0e00"},
		{store.Record{Kind: store.KindRenew, Lease: 7, Expires: expires}, "0cacb87c6b096b0e8080e581bbfedce01b"},
		{store.Record{Kind: store.KindExpire, Lease: 7}, "04b220b7910a6c0e00"},
		{store.Record{Kind: store.KindBorrow, Principal: 3, Amount: 12.5, ParentLease: 4}, "0c417327550b6d06000000000000294008"},
		{store.Record{Kind: store.KindRepay, ParentLease: 4}, "036deefe030c6e08"},
	} {
		tc.rec.Seq = uint64(100 + i)
		before := size()
		if err := l.Append(&tc.rec); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(raw[before:]); got != tc.want {
			t.Errorf("%v record: %d bytes\n%s\nwant %d bytes\n%s", tc.rec.Kind, len(raw)-before, got, len(tc.want)/2, tc.want)
		}
	}
	state := &store.Record{Seq: 200, Kind: store.KindState, State: &store.State{
		Names: []string{"n0", "n1"}, Reported: []float64{100, 50}, Avail: []float64{75, 50},
		Shares: []store.ShareState{{From: 0, To: 1, Fraction: 0.25}},
		Leases: []store.LeaseState{{Token: 7, Sources: []int{0}, Takes: []float64{25}, Expires: expires}}, NextLease: 8,
	}}
	if err := l.Compact(state); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "snapshot.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := hex.EncodeToString(raw), "4757414c553a8d647c81c8010002026e30026e310200000000000059400000000000004940020000000000c052400000000000004940010002000000000000d03f000000000000000000010e0302000139408080e581bbfedce01b000010"; got != want {
		t.Errorf("state record behind the file magic: %d bytes\n%s\nwant %d bytes\n%s", len(raw), got, len(want)/2, want)
	}
	if n := size(); n != 4 {
		t.Errorf("Compact left %d bytes of WAL, want the 4 of its magic", n)
	}
}
