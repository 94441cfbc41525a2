package wiretag_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/wiretag"
)

func TestWireTagDrift(t *testing.T) {
	analysistest.Run(t, wiretag.Analyzer, "a")
}

func TestWireTagClean(t *testing.T) {
	analysistest.Run(t, wiretag.Analyzer, "b")
}

func TestWireTagMissingManifest(t *testing.T) {
	analysistest.Run(t, wiretag.Analyzer, "c")
}

// mutationSrc is a pristine mini codec; the smoke test swaps two consts
// in the iota block (renumbering both tags) and asserts the drift is
// caught against the manifest generated from the pristine source.
const mutationSrc = `package m

type Request struct {
	Get *GetRequest
	Put *PutRequest
}

type GetRequest struct{ Key string }

type PutRequest struct{ Key string }

const (
	kindNone = iota
	kindGet
	kindPut
)

func AppendUvarint(dst []byte, v uint64) []byte { return dst }
func AppendString(dst []byte, s string) []byte  { return dst }

func appendRequest(dst []byte, req *Request) ([]byte, error) {
	switch {
	case req.Get != nil:
		dst = AppendUvarint(dst, kindGet)
		dst = AppendString(dst, req.Get.Key)
	case req.Put != nil:
		dst = AppendUvarint(dst, kindPut)
		dst = AppendString(dst, req.Put.Key)
	}
	return dst, nil
}
`

func runOnSource(t *testing.T, dir, src string) []analysis.Diagnostic {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, "m.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader := analysis.NewLoader()
	pkg, err := loader.LoadDir(dir, "m")
	if err != nil {
		t.Fatalf("load package: %v", err)
	}
	diags, err := analysis.Run(wiretag.Analyzer, loader.Fset, pkg.Files, pkg.Types, pkg.Info)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return diags
}

// TestMutationRenumberedTag proves the analyzer catches a seeded tag
// renumbering: the manifest is generated from the pristine codec, then
// two consts are swapped in the iota block.
func TestMutationRenumberedTag(t *testing.T) {
	dir := t.TempDir()

	// Generate the manifest from the pristine source.
	if err := os.WriteFile(filepath.Join(dir, "m.go"), []byte(mutationSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	loader := analysis.NewLoader()
	pkg, err := loader.LoadDir(dir, "m")
	if err != nil {
		t.Fatalf("load pristine package: %v", err)
	}
	if err := wiretag.WriteManifest(pkg.Files, pkg.Info, filepath.Join(dir, wiretag.ManifestName)); err != nil {
		t.Fatalf("write manifest: %v", err)
	}
	if diags := runOnSource(t, dir, mutationSrc); len(diags) != 0 {
		t.Fatalf("pristine codec must match its own manifest, got %v", diags)
	}

	mutated := strings.Replace(mutationSrc, "\tkindGet\n\tkindPut\n", "\tkindPut\n\tkindGet\n", 1)
	if mutated == mutationSrc {
		t.Fatal("mutation did not apply")
	}
	diags := runOnSource(t, dir, mutated)
	renumbered := 0
	for _, d := range diags {
		if strings.Contains(d.Message, "renumbered") {
			renumbered++
		}
	}
	if renumbered != 2 {
		t.Fatalf("want both swapped tags reported as renumbered, got %d; diagnostics: %v", renumbered, diags)
	}
}

// leadOnceSrc is a mini codec that writes the tag once, before its
// switch, as internal/grm/codec.go does: its cases are keyed by the
// payload they test, several payloads may share one, and the ops before
// the switch are the prelude.
const leadOnceSrc = `package m

type Request struct {
	Get  *GetRequest
	Put  *PutRequest
	Ping *PingRequest
}

type GetRequest struct{ Key string }

type PutRequest struct {
	Key string
	N   int64
}

type PingRequest struct{}

const (
	kindNone = iota
	kindGet
	kindPut
	kindPing
)

func AppendUvarint(dst []byte, v uint64) []byte { return dst }
func AppendString(dst []byte, s string) []byte  { return dst }
func AppendInt(dst []byte, v int64) []byte      { return dst }

func (req *Request) kind() uint64 { return kindNone }

func appendRequest(dst []byte, req *Request) ([]byte, error) {
	dst = AppendUvarint(dst, req.kind())
	switch {
	case req.Get != nil, req.Ping != nil:
	case req.Put != nil:
		dst = AppendString(dst, req.Put.Key)
		dst = AppendInt(dst, req.Put.N)
	}
	return dst, nil
}
`

// TestLeadOnceCasesKeyedByPayload: in a codec that writes the tag once,
// every kind still gets its field layout — empty for the payloads that
// share a case with no fields — and swapping two fields of a case is
// caught.
func TestLeadOnceCasesKeyedByPayload(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "m.go"), []byte(leadOnceSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	loader := analysis.NewLoader()
	pkg, err := loader.LoadDir(dir, "m")
	if err != nil {
		t.Fatalf("load package: %v", err)
	}
	m, _ := wiretag.Extract(pkg.Files, pkg.Info)
	want := map[string][]string{"kindGet": {}, "kindPing": {}, "kindPut": {"String", "Int"}}
	if !reflect.DeepEqual(m.Request, want) || !reflect.DeepEqual(m.RequestPrelude, []string{"Uvarint"}) {
		t.Fatalf("extracted prelude %v and layouts %v; want [Uvarint] and %v", m.RequestPrelude, m.Request, want)
	}
	if err := wiretag.WriteManifest(pkg.Files, pkg.Info, filepath.Join(dir, wiretag.ManifestName)); err != nil {
		t.Fatal(err)
	}
	swapped := strings.Replace(leadOnceSrc, "\t\tdst = AppendString(dst, req.Put.Key)\n\t\tdst = AppendInt(dst, req.Put.N)\n",
		"\t\tdst = AppendInt(dst, req.Put.N)\n\t\tdst = AppendString(dst, req.Put.Key)\n", 1)
	if swapped == leadOnceSrc {
		t.Fatal("mutation did not apply")
	}
	diags := runOnSource(t, dir, swapped)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "field layout for kindPut changed") {
		t.Fatalf("want the swapped fields of kindPut reported, got %v", diags)
	}
}
