// Command bench is the one benchmark of the served GRM: four fixed
// workloads driven over the wire from this process, end-to-end numbers
// with bounds, and a per-layer budget timed from outside the layers. See
// README.md for the tables.
//
//	go run ./bench                                   every workload, untraced
//	go run ./bench -trace 1                          every workload, per-layer pass
//	go run ./bench -workload ring64 -seed 7          one workload, one seed
//	go run ./bench -aa                               every workload twice, compared against the bounds
//
// With -workload the last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// runSeconds is BENCHMARK.json's run_seconds: the measured window time of
// a run. Every bound was characterised at this length.
const runSeconds = 20

// outDir holds the WAL directories and span files, relative to the root
// of the checkout.
const outDir = "bench/out"

func main() {
	var (
		name    = flag.String("workload", "", "run this workload in this process (default: every workload, each in a child process)")
		seed    = flag.Int64("seed", 1, "seeds request amounts and arrival gaps")
		seconds = flag.Float64("seconds", runSeconds, "measured window time per run; the driver passes BENCHMARK.json's run_seconds")
		trace   = flag.Int("trace", 0, "1 runs the per-layer pass (spans to bench/out/trace-<workload>.jsonl) instead of the end-to-end pass")
		aa      = flag.Bool("aa", false, "run the untraced suite twice on the same code and compare the two against the bounds")
		smoke   = flag.Bool("smoke", false, "200 ms windows, one repetition, shrunk tree (the tier-1 test's mode)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, smoke: *smoke, outDir: outDir}
	var err error
	switch {
	case *name != "":
		err = runOne(os.Stdout, *name, o, *trace != 0)
	case *aa:
		err = runAA(os.Stdout, o)
	default:
		err = runSuite(os.Stdout, o, *trace != 0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// jsonResult is the contract's last line.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in this process, prints its table, and ends
// with the JSON line. A run that fails a correctness check prints no
// metrics and returns the error.
func runOne(out io.Writer, name string, o options, traced bool) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	run, table := runEndToEnd, endToEnd
	if traced {
		run, table = runTraced, perLayer
	}
	res, err := run(w, o)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	printTable(out, w, o, table, res)
	line := jsonResult{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range table {
		r, ok := res.metrics[m.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", name, m.name)
		}
		line.Metrics[m.name] = jsonMetric{Value: r.value, Unit: r.unit}
	}
	return json.NewEncoder(out).Encode(line)
}

func printTable(out io.Writer, w *workload, o options, table []metricDef, res *outcome) {
	fmt.Fprintf(out, "workload %s seed %d: %s\n", w.name, o.seed, w.why)
	fmt.Fprintf(out, "  %-30s %12s %-6s %12s %12s %12s %12s %5s %9s %6s\n", "metric", "value", "unit", "q1", "q3", "min", "max", "reps", "samples", "bound")
	for _, m := range table {
		r := res.metrics[m.name]
		bound := "-"
		if m.bound > 0 {
			bound = fmt.Sprintf("%.2f", m.bound)
		}
		fmt.Fprintf(out, "  %-30s %12.6g %-6s %12.6g %12.6g %12.6g %12.6g %5d %9d %6s\n", m.name, r.value, r.unit, r.q1, r.q3, r.min, r.max, r.reps, r.samples, bound)
	}
	for _, note := range res.notes {
		fmt.Fprintf(out, "  %s\n", note)
	}
}

// runChild runs one workload in a child process of this binary, so each
// workload's peak RSS and heap are its own, and returns its JSON line.
func runChild(out io.Writer, w *workload, o options, traced bool) (*jsonResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds)}
	if traced {
		args = append(args, "-trace", "1")
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	// Everything but the JSON line is the child's table; pass it through.
	text := strings.TrimRight(string(raw), "\n")
	cut := strings.LastIndexByte(text, '\n') + 1
	if err != nil {
		io.WriteString(out, string(raw))
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	io.WriteString(out, text[:cut])
	var res jsonResult
	if err := json.Unmarshal([]byte(text[cut:]), &res); err != nil {
		return nil, fmt.Errorf("%s: last line is not the result object: %w", w.name, err)
	}
	return &res, nil
}

// runSuite runs every workload, each in its own child process.
func runSuite(out io.Writer, o options, traced bool) error {
	for _, w := range workloads {
		if _, err := runChild(out, w, o, traced); err != nil {
			return err
		}
	}
	return nil
}

// runAA is the benchmark's own noise check: every workload twice on the
// same code, the two runs of a workload back to back so they share the
// host's weather. Any metric the second run has worse than the first by
// more than its bound is a breach — on unchanged code, a false alarm.
func runAA(out io.Writer, o options) error {
	var table strings.Builder
	breaches := 0
	for _, w := range workloads {
		first, err := runChild(out, w, o, false)
		if err != nil {
			return err
		}
		second, err := runChild(out, w, o, false)
		if err != nil {
			return err
		}
		for _, m := range endToEnd {
			a, b := first.Metrics[m.name].Value, second.Metrics[m.name].Value
			worse := (b - a) / a
			if m.better == "higher" {
				worse = (a - b) / a
			}
			verdict := ""
			if worse > m.bound {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Fprintf(&table, "  %-14s %-18s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n", w.name, m.name, a, b, 100*worse, 100*m.bound, verdict)
		}
	}
	fmt.Fprintf(out, "A/A comparison, seed %d\n", o.seed)
	fmt.Fprintf(out, "  %-14s %-18s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	io.WriteString(out, table.String())
	if breaches > 0 {
		return fmt.Errorf("%d metrics moved by more than their bound between two runs of the same code", breaches)
	}
	return nil
}
