package scenario

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// minimalBundle is a tiny well-formed bundle for codec tests.
func minimalBundle() *Bundle {
	events := []Event{
		{T: 0, Op: OpRegister, Name: "a", Capacity: 2},
		{T: 0, Op: OpRegister, Name: "b", Capacity: 3},
		{T: 10, Op: OpShare, P: 0, To: 1, Fraction: 0.5},
		{T: 100, Op: OpAlloc, P: 1, Amount: 2.5},
		{T: 200, Op: OpRelease, Lease: 1},
	}
	return &Bundle{
		Meta: Meta{
			Format: FormatVersion,
			Name:   "mini",
			Title:  "two peers, one share, one alloc",
			Source: "test",
			Events: len(events),
		},
		Events:   events,
		Expected: map[int]*Outcome{},
	}
}

func TestBundleWriteReadRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "mini")
	b := minimalBundle()
	res, err := Replay(b, ReplayOptions{Bless: true})
	if err != nil {
		t.Fatalf("bless: %v", err)
	}
	b.Expected = res.Actual
	if err := WriteBundle(dir, b); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadBundle(dir)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Meta.Name != "mini" || got.Meta.Format != FormatVersion {
		t.Fatalf("meta round-trip: %+v", got.Meta)
	}
	if len(got.Events) != len(b.Events) {
		t.Fatalf("events round-trip: %d != %d", len(got.Events), len(b.Events))
	}
	if len(got.Expected) != len(b.Expected) {
		t.Fatalf("expected round-trip: %d != %d", len(got.Expected), len(b.Expected))
	}
	if got.Trace() != b.Trace() {
		t.Fatalf("trace changed across write/read:\n%s\nvs\n%s", got.Trace(), b.Trace())
	}
}

func TestDecodeBundleRejections(t *testing.T) {
	goodMeta := []byte(`{"format":1,"name":"x","events":1}`)
	goodEvents := []byte(`{"t":0,"op":"register","name":"a","capacity":1}` + "\n")
	cases := []struct {
		name                   string
		meta, events, expected string
		wantErr                string
	}{
		{"bad meta json", `{`, "", "", "unexpected EOF"},
		{"meta trailing data", `{"format":1,"name":"x","events":0} {"x":1}`, "", "", "trailing data"},
		{"unknown meta field", `{"format":1,"name":"x","events":0,"bogus":3}`, "", "", "bogus"},
		{"approx meta field", `{"format":1,"name":"x","events":0,"approx":true}`, "", "", "approx"},
		{"wrong format", `{"format":2,"name":"x","events":0}`, "", "", "unsupported format"},
		{"empty name", `{"format":1,"name":"","events":0}`, "", "", "empty name"},
		{"negative events", `{"format":1,"name":"x","events":-1}`, "", "", "negative event count"},
		{"negative ttl", `{"format":1,"name":"x","events":0,"ttl_ms":-5}`, "", "", "negative ttl_ms"},
		{"truncated log", `{"format":1,"name":"x","events":2}`, string(goodEvents), "", "truncated or stale"},
		{"padded log", `{"format":1,"name":"x","events":0}`, string(goodEvents), "", "truncated or stale"},
		{"malformed event line", string(goodMeta), "{not json}\n", "", "invalid character"},
		{"unknown op", string(goodMeta), `{"t":0,"op":"frobnicate"}` + "\n", "", "unknown op"},
		{"unknown event field", string(goodMeta), `{"t":0,"op":"advance","zap":1}` + "\n", "", "zap"},
		{"negative timestamp", string(goodMeta), `{"t":-1,"op":"advance"}` + "\n", "", "negative timestamp"},
		{
			"out of order timestamps",
			`{"format":1,"name":"x","events":2}`,
			`{"t":5,"op":"advance"}` + "\n" + `{"t":4,"op":"advance"}` + "\n",
			"", "out of order",
		},
		{"register empty name", string(goodMeta), `{"t":0,"op":"register","capacity":1}` + "\n", "", "empty name"},
		{"share both kinds", string(goodMeta), `{"t":0,"op":"share","to":1,"fraction":0.5,"quantity":2}` + "\n", "", "exactly one"},
		{"share neither kind", string(goodMeta), `{"t":0,"op":"share","to":1}` + "\n", "", "exactly one"},
		{"attach without parent", string(goodMeta), `{"t":0,"op":"attach","name":"c"}` + "\n", "", "missing parent"},
		{"expected bad json", string(goodMeta), string(goodEvents), "{]\n", "invalid character"},
		{"expected unknown field", string(goodMeta), string(goodEvents), `{"i":0,"wat":1}` + "\n", "wat"},
		{"expected out of order", string(goodMeta), string(goodEvents), `{"i":0}` + "\n" + `{"i":0}` + "\n", "out of order"},
		{"expected beyond events", string(goodMeta), string(goodEvents), `{"i":7}` + "\n", "beyond last event"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeBundle([]byte(tc.meta), []byte(tc.events), []byte(tc.expected))
			if err == nil {
				t.Fatalf("decode accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestDiscover(t *testing.T) {
	root := t.TempDir()
	for _, d := range []string{"corpus/a", "corpus/b", "corpus/nested/c"} {
		dir := filepath.Join(root, d)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, MetaFile), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.MkdirAll(filepath.Join(root, "corpus/notabundle"), 0o755); err != nil {
		t.Fatal(err)
	}
	dirs, err := Discover([]string{filepath.Join(root, "corpus") + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 3 {
		t.Fatalf("discovered %d bundles, want 3: %v", len(dirs), dirs)
	}
	if _, err := Discover([]string{filepath.Join(root, "corpus/notabundle")}); err == nil {
		t.Fatal("non-bundle directory accepted")
	}
	one, err := Discover([]string{filepath.Join(root, "corpus/a")})
	if err != nil || len(one) != 1 {
		t.Fatalf("explicit dir: %v %v", one, err)
	}
}

// TestMutationSmoke is the acceptance-criteria check: corrupting one
// expectation in a blessed bundle must produce a divergence naming the
// first diverging op.
func TestMutationSmoke(t *testing.T) {
	b := minimalBundle()
	res, err := Replay(b, ReplayOptions{Bless: true})
	if err != nil {
		t.Fatalf("bless: %v", err)
	}
	b.Expected = res.Actual

	// Corrupt the alloc expectation (event 3): claim it took everything
	// from the wrong principal.
	mutIdx := 3
	mut := *b.Expected[mutIdx]
	mut.Takes = []float64{2.5, 0}
	b.Expected[mutIdx] = &mut

	res2, err := Replay(b, ReplayOptions{})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	d := res2.Divergence
	if d == nil {
		t.Fatal("corrupted expectation replayed clean")
	}
	if d.Index != mutIdx {
		t.Fatalf("divergence at event %d, want %d", d.Index, mutIdx)
	}
	if d.Field != "takes" {
		t.Fatalf("divergence field %q, want takes", d.Field)
	}
	if !strings.Contains(d.Op, "alloc") {
		t.Fatalf("divergence op %q does not identify the alloc", d.Op)
	}
	if d.Status == "" || !strings.Contains(d.Status, "avail") {
		t.Fatalf("divergence carries no server status: %q", d.Status)
	}
	// The replay stops at the first divergence.
	if res2.Events != mutIdx+1 {
		t.Fatalf("replay ran %d events past the divergence", res2.Events-(mutIdx+1))
	}
	// An error-expectation mutation is also caught.
	mut2 := *res.Actual[mutIdx]
	mut2.Err = "grm: alloc: made-up failure"
	b.Expected[mutIdx] = &mut2
	res3, err := Replay(b, ReplayOptions{})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res3.Divergence == nil || res3.Divergence.Field != "err" {
		t.Fatalf("error mutation not caught: %+v", res3.Divergence)
	}
}

// TestSeededCorpusReplays replays the checked-in corpus — the same gate
// CI runs through cmd/scenario, kept in `go test` so plain test runs
// catch a behavior change that invalidates the corpus. The committed
// bundles are the corpus's only source, so each must also be a fixed
// point of `scenario rebless`: re-blessed and written out, it must give
// back its committed files byte for byte.
func TestSeededCorpusReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay spins real servers; skipped in -short")
	}
	dirs, err := Discover([]string{"../../scenarios/..."})
	if err != nil {
		t.Fatalf("discover: %v", err)
	}
	if len(dirs) < 6 {
		t.Fatalf("corpus has %d bundles, want >= 6", len(dirs))
	}
	for _, dir := range dirs {
		b, err := ReadBundle(dir)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		t.Run(b.Meta.Name, func(t *testing.T) {
			res, err := Replay(b, ReplayOptions{})
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if res.Divergence != nil {
				t.Fatalf("diverged:\n%v", res.Divergence)
			}
			if res.Trace != b.Trace() {
				t.Error("clean replay trace differs from the blessed trace")
			}

			blessed, err := Replay(b, ReplayOptions{Bless: true})
			if err != nil {
				t.Fatalf("bless: %v", err)
			}
			b.Expected = blessed.Actual
			out := filepath.Join(t.TempDir(), b.Meta.Name)
			if err := WriteBundle(out, b); err != nil {
				t.Fatalf("write: %v", err)
			}
			for _, file := range []string{MetaFile, EventsFile, ExpectedFile} {
				want, err := os.ReadFile(filepath.Join(dir, file))
				if err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(filepath.Join(out, file))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s is not what rebless writes; first differing line:\n  committed: %s\n  reblessed: %s",
						file, firstDiff(want, got), firstDiff(got, want))
				}
			}
		})
	}
}

// firstDiff returns a's first line that differs from b's line at the same
// position, or a note that a ran out of lines first.
func firstDiff(a, b []byte) string {
	al, bl := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i, line := range al {
		if i >= len(bl) || line != bl[i] {
			return fmt.Sprintf("line %d: %s", i+1, line)
		}
	}
	return fmt.Sprintf("(ends after %d lines)", len(al))
}
