// Command benchjson turns `go test -bench` output into a tracked JSON
// trajectory file. It reads benchmark output on stdin and writes (or
// updates) a JSON document with two snapshots:
//
//   - "baseline": the frozen reference numbers. If the output file already
//     contains a baseline it is preserved verbatim, so the baseline stays
//     pinned to the run that first created the file.
//   - "current": the numbers parsed from stdin, replacing the previous
//     current snapshot.
//
// Benchmark names are qualified by their package ("internal/core.
// BenchmarkPlanSubstituted10") using the `pkg:` lines go test emits, so one
// file can track several packages. A comparison table of current vs
// baseline is printed to stderr.
//
// Usage:
//
//	go test -bench . -benchmem ./internal/core/ | benchjson -out BENCH_hotpath.json
//
// With -compare the tool reads no stdin: it loads the named files (the
// -out file when none are given) and diffs each one's current snapshot
// against its frozen baseline. Because snapshots are recorded on
// whatever machine ran `make bench-json`, raw ns/op is not comparable
// across recordings; the comparison first estimates the machine-drift
// factor as the median current/baseline ratio over all shared
// benchmarks, then judges each benchmark's drift-normalized delta. It
// exits non-zero when any normalized delta exceeds -threshold percent —
// i.e. when a benchmark got slower relative to the rest of the suite,
// which survives a uniformly faster or slower recording machine. This
// is the CI bench-regression gate (make bench-compare):
//
//	benchjson -compare -threshold 50 BENCH_hotpath.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// Entry is one benchmark's measurements.
type Entry struct {
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// Snapshot is one full bench run.
type Snapshot struct {
	Captured   string           `json:"captured"`
	GoVersion  string           `json:"go_version,omitempty"`
	CPU        string           `json:"cpu,omitempty"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// File is the on-disk document.
type File struct {
	Comment  string    `json:"comment,omitempty"`
	Baseline *Snapshot `json:"baseline,omitempty"`
	Current  *Snapshot `json:"current,omitempty"`
}

// benchLine also matches lines where custom metrics (MB/s, b.ReportMetric
// units) sit between ns/op and the -benchmem pair, so B/op and allocs/op
// are never dropped.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:.*?\s([0-9.]+) B/op\s+([0-9.]+) allocs/op)?`)

func main() {
	out := flag.String("out", "BENCH_hotpath.json", "JSON file to write/update")
	comment := flag.String("comment", "", "set the file-level comment (kept as-is when empty)")
	compare := flag.Bool("compare", false, "diff current vs baseline in the named files (default: the -out file) and exit non-zero on regression")
	threshold := flag.Float64("threshold", 50, "percent drift-normalized ns/op regression tolerated in -compare mode")
	flag.Parse()

	if *compare {
		files := flag.Args()
		if len(files) == 0 {
			files = []string{*out}
		}
		bad := 0
		for _, f := range files {
			bad += compareFile(f, *threshold)
		}
		if bad > 0 {
			fatal("%d benchmark(s) regressed more than %.0f%% vs baseline after drift normalization", bad, *threshold)
		}
		fmt.Fprintln(os.Stderr, "benchjson: no regressions beyond threshold")
		return
	}

	snap := &Snapshot{
		Captured:   time.Now().UTC().Format(time.RFC3339),
		Benchmarks: map[string]Entry{},
	}
	var pkg string
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
			// Strip the module prefix; the repo-relative path reads better.
			if i := strings.Index(pkg, "/"); i >= 0 {
				pkg = pkg[i+1:]
			}
		case strings.HasPrefix(line, "cpu: "):
			snap.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu: "))
		case strings.HasPrefix(line, "goos: "), strings.HasPrefix(line, "goarch: "):
			// ignored; implied by the repo's CI environment
		default:
			m := benchLine.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			name := m[1]
			if pkg != "" {
				name = pkg + "." + name
			}
			e := Entry{NsPerOp: atof(m[2])}
			if m[3] != "" {
				b, a := atof(m[3]), atof(m[4])
				e.BytesPerOp, e.AllocsPerOp = &b, &a
			}
			snap.Benchmarks[name] = e
		}
	}
	if err := sc.Err(); err != nil {
		fatal("read stdin: %v", err)
	}
	if len(snap.Benchmarks) == 0 {
		fatal("no benchmark lines found on stdin")
	}

	var doc File
	if raw, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			fatal("parse existing %s: %v", *out, err)
		}
	} else if !os.IsNotExist(err) {
		fatal("read %s: %v", *out, err)
	}
	if *comment != "" {
		doc.Comment = *comment
	}
	if doc.Baseline == nil {
		doc.Baseline = snap
	}
	doc.Current = snap

	raw, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		fatal("encode: %v", err)
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(*out, raw, 0o644); err != nil {
		fatal("write %s: %v", *out, err)
	}

	report(doc.Baseline, doc.Current)
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(snap.Benchmarks), *out)
}

// compareFile diffs one trajectory file's current snapshot against its
// baseline and returns the number of benchmarks whose ns/op regressed
// beyond threshold percent after machine-drift normalization: the two
// snapshots come from different `make bench-json` runs on possibly
// different hardware, so each benchmark's raw current/baseline ratio is
// divided by the suite-wide median ratio before judging. A uniform
// slowdown (slower recording machine) cancels out; a benchmark that got
// slower relative to its peers does not. Benchmarks present in only one
// snapshot are reported but never fail the comparison: new benchmarks
// have no reference, and retired ones have no current number to police.
func compareFile(path string, threshold float64) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal("read %s: %v", path, err)
	}
	var doc File
	if err := json.Unmarshal(raw, &doc); err != nil {
		fatal("parse %s: %v", path, err)
	}
	if doc.Baseline == nil || doc.Current == nil {
		fatal("%s: missing baseline or current snapshot", path)
	}
	names := make([]string, 0, len(doc.Current.Benchmarks))
	for name := range doc.Current.Benchmarks {
		names = append(names, name)
	}
	sortStrings(names)
	w := 0
	for _, n := range names {
		if len(n) > w {
			w = len(n)
		}
	}
	var ratios []float64
	for _, name := range names {
		if b, ok := doc.Baseline.Benchmarks[name]; ok && b.NsPerOp > 0 {
			ratios = append(ratios, doc.Current.Benchmarks[name].NsPerOp/b.NsPerOp)
		}
	}
	drift := median(ratios)
	if drift <= 0 {
		drift = 1
	}
	fmt.Fprintf(os.Stderr, "benchjson: %s: machine drift estimate %+.1f%% (median over %d shared benchmarks)\n",
		path, 100*(drift-1), len(ratios))
	bad := 0
	for _, name := range names {
		c := doc.Current.Benchmarks[name]
		b, ok := doc.Baseline.Benchmarks[name]
		if !ok || b.NsPerOp <= 0 {
			fmt.Fprintf(os.Stderr, "%-*s %12.0f ns/op  (no baseline)\n", w, name, c.NsPerOp)
			continue
		}
		raw := 100 * (c.NsPerOp - b.NsPerOp) / b.NsPerOp
		norm := 100 * (c.NsPerOp/b.NsPerOp/drift - 1)
		verdict := "ok"
		if norm > threshold {
			verdict = "REGRESSED"
			bad++
		}
		fmt.Fprintf(os.Stderr, "%-*s %12.0f ns/op  %+7.1f%% raw  %+7.1f%% normalized  %s\n", w, name, c.NsPerOp, raw, norm, verdict)
	}
	for name := range doc.Baseline.Benchmarks {
		if _, ok := doc.Current.Benchmarks[name]; !ok {
			fmt.Fprintf(os.Stderr, "%-*s %12s  (baseline only; not in current run)\n", w, name, "-")
		}
	}
	fmt.Fprintf(os.Stderr, "benchjson: %s: %d of %d benchmarks regressed beyond %.0f%% normalized\n",
		path, bad, len(names), threshold)
	return bad
}

// median returns the middle value of xs (mean of the middle pair for
// even counts); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// report prints a current-vs-baseline table to stderr.
func report(base, cur *Snapshot) {
	names := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		names = append(names, name)
	}
	sortStrings(names)
	w := 0
	for _, n := range names {
		if len(n) > w {
			w = len(n)
		}
	}
	for _, name := range names {
		c := cur.Benchmarks[name]
		line := fmt.Sprintf("%-*s %12.0f ns/op", w, name, c.NsPerOp)
		if c.AllocsPerOp != nil {
			line += fmt.Sprintf(" %8.0f allocs/op", *c.AllocsPerOp)
		}
		if b, ok := base.Benchmarks[name]; ok && b.NsPerOp > 0 {
			line += fmt.Sprintf("  (%+6.1f%% vs baseline)", 100*(c.NsPerOp-b.NsPerOp)/b.NsPerOp)
		}
		fmt.Fprintln(os.Stderr, line)
	}
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func atof(s string) float64 {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		fatal("parse number %q: %v", s, err)
	}
	return f
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}
