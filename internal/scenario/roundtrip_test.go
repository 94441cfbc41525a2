package scenario_test

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/grm"
	"repro/internal/modeltest"
	"repro/internal/scenario"
)

// TestRecordReplayRoundTrip records seeded modeltest cluster schedules
// through the server tap, replays the captured bundles, and asserts the
// replay trace is byte-identical to the recording — the full
// record→bundle→replay loop (under -race when the suite runs with it).
// The trace identity is strict: every event's takes, θ, lease tokens,
// errors, and post-op availability checkpoints must reproduce exactly,
// with reconnect re-registrations and lease expiry landing on the same
// virtual timestamps.
func TestRecordReplayRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("record/replay spins real servers; skipped in -short")
	}
	for _, seed := range []int64{1, 7} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			bundle, rep, err := modeltest.RecordCluster(modeltest.ClusterOptions{
				Seed:  seed,
				Steps: 40,
				TTL:   10 * time.Second,
			}, time.Unix(0, 0))
			if err != nil {
				t.Fatalf("record: %v", err)
			}
			if rep.Failure != nil {
				t.Fatalf("cluster run failed: %v", rep.Failure)
			}
			if len(bundle.Events) == 0 {
				t.Fatal("recorded no events")
			}

			// The bundle must survive its own codec before replay.
			dir := filepath.Join(t.TempDir(), bundle.Meta.Name)
			if err := scenario.WriteBundle(dir, bundle); err != nil {
				t.Fatalf("write: %v", err)
			}
			reread, err := scenario.ReadBundle(dir)
			if err != nil {
				t.Fatalf("reread: %v", err)
			}

			res, err := scenario.Replay(reread, scenario.ReplayOptions{})
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if res.Divergence != nil {
				t.Fatalf("replay diverged from the recording:\n%v", res.Divergence)
			}
			if res.Events != len(reread.Events) {
				t.Fatalf("replay executed %d of %d events", res.Events, len(reread.Events))
			}
			want := reread.Trace()
			if res.Trace != want {
				t.Fatalf("replay trace not byte-identical to the recording\nrecorded:\n%s\nreplayed:\n%s", want, res.Trace)
			}
		})
	}
}

// TestRecorderSkipsReadOnlyOps pins that pings, capacity probes and peer
// listings never enter a recording: they carry no book effects, and the
// modeltest schedule issues Capacities before every allocation — a
// recorded schedule polluted with them would replay fine but bloat
// every bundle.
func TestRecorderSkipsReadOnlyOps(t *testing.T) {
	rec := scenario.NewRecorder(scenario.Meta{Name: "x"})
	rec.Tap(grm.TapEvent{Req: &grm.Request{Ping: &grm.PingRequest{}}, Resp: &grm.Response{Ping: &grm.PingReply{}}})
	rec.Tap(grm.TapEvent{Req: &grm.Request{Caps: &grm.CapsRequest{}}, Resp: &grm.Response{Caps: &grm.CapsReply{}}})
	rec.Tap(grm.TapEvent{Req: &grm.Request{Peers: &grm.PeersRequest{}}, Resp: &grm.Response{Peers: &grm.PeersReply{}}})
	if n := rec.Len(); n != 0 {
		t.Fatalf("recorder captured %d read-only ops", n)
	}
	rec.Tap(grm.TapEvent{
		Now:  time.Unix(5, 0),
		Req:  &grm.Request{Register: &grm.RegisterRequest{Name: "a", Capacity: 1}},
		Resp: &grm.Response{Register: &grm.RegisterReply{Principal: 0}},
	})
	if n := rec.Len(); n != 1 {
		t.Fatalf("recorder captured %d events, want 1", n)
	}
	b := rec.Bundle()
	if b.Events[0].Op != scenario.OpRegister || b.Events[0].T != 0 {
		t.Fatalf("first event %+v, want register at t=0", b.Events[0])
	}
	if out := b.Expected[0]; out == nil || out.Principal == nil || *out.Principal != 0 {
		t.Fatalf("register outcome %+v not blessed", b.Expected[0])
	}
}
