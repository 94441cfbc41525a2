package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	sample := make([]float64, 100)
	for i := range sample {
		sample[i] = float64(i + 1) // 1..100
	}
	for _, tc := range []struct {
		q    float64
		want float64
		ok   bool
	}{
		{0.50, 50, true},
		{0.90, 90, true}, // exactly ten samples beyond
		{0.91, 91, false},
		{0.99, 99, false},
		{0.10, 10, false}, // nine samples below
		{0.11, 11, true},  // ten samples below
	} {
		got, ok := percentile(sample, tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..100, %v) = %v, %v; want %v, %v", tc.q, got, ok, tc.want, tc.ok)
		}
	}
	// Nearest rank never interpolates: the p50 of four values is the second.
	if got, _ := percentile([]float64{1, 2, 30, 40}, 0.5); got != 2 {
		t.Errorf("p50 of {1,2,30,40} = %v, want 2", got)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("an empty sample has no percentile")
	}
	// Twenty samples support a median (ten beyond) but not a p90.
	if _, ok := percentile(sample[:20], 0.5); !ok {
		t.Error("20 samples leave 10 beyond the median")
	}
	if _, ok := percentile(sample[:20], 0.9); ok {
		t.Error("20 samples leave only 2 beyond the p90")
	}
}

func TestTailPercentile(t *testing.T) {
	sample := make([]float64, 2000)
	for i := range sample {
		sample[i] = float64(i + 1)
	}
	// 2000 samples leave twenty beyond the p99.
	if q, v, ok := tailPercentile(sample); !ok || q != 0.99 || v != 1980 {
		t.Errorf("tail of 1..2000 = p%v %v %v, want p0.99 1980", q, v, ok)
	}
	// The p99 of 45 samples has none beyond it; the highest percentile
	// with ten beyond is the 35th value.
	if q, v, ok := tailPercentile(sample[:45]); !ok || v != 35 || q != 35.0/45 {
		t.Errorf("tail of 1..45 = p%v %v %v, want the 35th value", q, v, ok)
	}
	// Twenty samples leave ten beyond the median and nothing above it.
	if _, _, ok := tailPercentile(sample[:20]); ok {
		t.Error("20 samples support no percentile above the median")
	}
	if _, _, ok := tailPercentile(nil); ok {
		t.Error("an empty sample has no tail")
	}
}

func TestMedianOf(t *testing.T) {
	f := medianOf([]float64{5, 1, 4, 2, 3})
	if f.value != 3 || f.q1 != 2 || f.q3 != 4 || f.min != 1 || f.max != 5 || f.reps != 5 || f.samples != 5 {
		t.Errorf("fold of 1..5 = %+v", f)
	}
	// One bad repetition moves neither the median nor the quartiles much.
	g := medianOf([]float64{5, 1, 4, 2, 300})
	if g.value != 4 || g.q1 != 2 || g.q3 != 5 {
		t.Errorf("fold with an outlier = %+v", g)
	}
	if one := medianOf([]float64{7}); one.value != 7 || one.q1 != 7 || one.q3 != 7 {
		t.Errorf("a single repetition folds to itself, got %+v", one)
	}
	if even := medianOf([]float64{1, 2, 3, 4}); even.value != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", even.value)
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(lo, hi int) span {
		return span{Start: t0.Add(time.Duration(lo) * time.Microsecond), End: t0.Add(time.Duration(hi) * time.Microsecond)}
	}
	parent := at(0, 100)
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100 * time.Microsecond},
		{"disjoint", []span{at(10, 20), at(50, 70)}, 70 * time.Microsecond},
		{"overlapping count once", []span{at(10, 40), at(30, 60)}, 50 * time.Microsecond},
		{"nested", []span{at(10, 60), at(20, 30)}, 50 * time.Microsecond},
		{"sticking out is clipped", []span{at(-20, 10), at(90, 150)}, 80 * time.Microsecond},
		{"outside entirely", []span{at(200, 300)}, 100 * time.Microsecond},
		{"covering", []span{at(-5, 105)}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

// contract is BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package in
// step: exactly the same workloads, metric names, units, directions and
// bounds, in the same order.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(c.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", c.Command, c.Paths)
	}
	if c.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the package measures for %d", c.RunSeconds, runSeconds)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the package has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the package has %s: %s", i, c.Workloads[i], w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s breaks the naming rules", w.name)
		}
	}
	check := func(kind string, listed []contractMetric, table []metricDef, bounded bool) {
		if len(listed) != len(table) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the package has %d", kind, len(listed), len(table))
		}
		for i, m := range table {
			got := listed[i]
			if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the package has %+v", kind, i, got, m)
			}
			if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
				t.Errorf("%s: %s (%s) breaks the naming rules", kind, m.name, m.unit)
			}
			switch {
			case bounded && (got.Bound == nil || *got.Bound != m.bound || m.bound <= 0 || m.bound > 0.25):
				t.Errorf("%s: %s has bound %v in BENCHMARK.json, %v in the package", kind, m.name, got.Bound, m.bound)
			case !bounded && got.Bound != nil:
				t.Errorf("%s: %s must not carry a bound", kind, m.name)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd, true)
	check("per_layer", c.PerLayer, perLayer, false)
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].better != "lower" {
		t.Error("setup_s must be an end-to-end metric in seconds, lower is better")
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[m.name] {
			t.Errorf("metric %s is listed twice", m.name)
		}
		seen[m.name] = true
	}
}

// TestSmoke runs every workload through both passes in smoke mode and
// checks the contract's last line: every metric of the pass exactly once,
// by name, with its unit, and nothing failed.
func TestSmoke(t *testing.T) {
	o := options{seed: 1, seconds: 1, smoke: true, outDir: t.TempDir()}
	for _, w := range workloads {
		for _, pass := range []struct {
			traced bool
			table  []metricDef
		}{{false, endToEnd}, {true, perLayer}} {
			var out bytes.Buffer
			start := time.Now()
			err := runOne(&out, w.name, o, pass.traced)
			t.Logf("%s traced=%v took %v", w.name, pass.traced, time.Since(start))
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.name, pass.traced, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res jsonResult
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result object: %v", w.name, pass.traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, pass.traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(pass.table) {
				t.Errorf("%s traced=%v: %d metrics emitted, want %d", w.name, pass.traced, len(res.Metrics), len(pass.table))
			}
			for _, m := range pass.table {
				got, ok := res.Metrics[m.name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, pass.traced, m.name)
				} else if got.Unit != m.unit {
					t.Errorf("%s: %s has unit %q, want %q", w.name, m.name, got.Unit, m.unit)
				}
				// The printed table names each metric exactly once.
				if n := strings.Count(out.String(), "\n  "+m.name+" "); n != 1 {
					t.Errorf("%s traced=%v: %s printed %d times", w.name, pass.traced, m.name, n)
				}
			}
			if !pass.traced {
				for name, got := range res.Metrics {
					if got.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be zero", w.name, name, got.Value)
					}
				}
			}
		}
	}
}
