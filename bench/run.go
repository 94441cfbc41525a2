package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/grm"
)

// options is one invocation's settings.
type options struct {
	seed    int64
	seconds float64 // total measured window time of the run
	smoke   bool    // tiny windows, one repetition, shrunk isp10 and tree: the tier-1 test
	outDir  string  // WAL directories and span files live here
}

// shape is how a run divides its time. A full run is ten repetitions of a
// closed-loop and an open-loop window, interleaved so both loops see the
// same stretches of the host's weather; the smoke run is one repetition
// of 200 ms windows over shrunk fixtures.
type shape struct {
	reps         int
	window       time.Duration
	warm         time.Duration
	setups       int // how many times set-up is timed
	restarts     int // how many times the restart is timed
	recoverPairs int
	principals   int // population override, 0 = full
}

func (o options) shape(w *workload) shape {
	if o.smoke {
		return shape{reps: 1, window: 200 * time.Millisecond, warm: 50 * time.Millisecond, setups: 1, restarts: 1, recoverPairs: w.recoverPairs / 50, principals: w.smokePrincipals}
	}
	const reps = 10
	return shape{reps: reps, window: time.Duration(o.seconds / (2 * reps) * float64(time.Second)),
		warm: 500 * time.Millisecond, setups: w.setups, restarts: w.restarts, recoverPairs: w.recoverPairs}
}

// outcome is one run of one workload.
type outcome struct {
	attempted, failed int64
	metrics           readings
	// notes are workload-specific or informational lines for the printed
	// table that are not part of the JSON contract.
	notes []string
}

// releaseMemory drops everything the previous incarnation held before the next
// one is timed, so set-up repetitions do not pay for each other's garbage.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// maxLateMS is how far behind schedule (p99) the generator may send in an
// open-loop window before the window's latencies measure the generator
// and are discarded.
const maxLateMS = 1

// runEndToEnd is the untraced pass. One incarnation is set up and served —
// warm-up, the measured repetitions, the book check — and its peak RSS
// read; only then come the remaining timed set-ups and the recovery pass,
// whose garbage would otherwise be in that peak.
func runEndToEnd(w *workload, o options) (*outcome, error) {
	sh := o.shape(w)
	dir := filepath.Join(o.outDir, "wal-"+w.name)
	defer os.RemoveAll(dir)

	c := &cluster{w: w, dir: dir}
	defer c.close()
	timeSetup := func() (float64, error) {
		start := time.Now()
		if err := setup(c, o.seed, sh.principals); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		return time.Since(start).Seconds(), nil
	}
	first, err := timeSetup()
	if err != nil {
		return nil, err
	}
	setupS := []float64{first}

	d := &driver{c: c, seed: o.seed}
	out := &outcome{metrics: readings{}}
	d.closed(sh.warm, nil)
	d.open(sh.warm, w.arrivalRate(), false)

	var opsPerS, cpuPerOp, lateP99 []float64
	var lat [numOps][]float64 // per operation kind, every valid open-loop window's samples
	var closed window         // every closed-loop window summed
	var walBytes, wireBytes int64
	var overLimit, openArrivals, valid int
	for rep := 0; rep < sh.reps; rep++ {
		if err := c.compact(); err != nil {
			return nil, err
		}
		runtime.GC()
		wal0, err := dirBytes(c.dir)
		if err != nil {
			return nil, err
		}
		wire0 := c.wire.Load()
		cw := d.closed(sh.window, nil)
		if cw.ops == 0 {
			return nil, fmt.Errorf("closed-loop window %d completed no operation", rep)
		}
		wal1, err := dirBytes(c.dir)
		if err != nil {
			return nil, err
		}
		walBytes += wal1 - wal0
		wireBytes += c.wire.Load() - wire0
		opsPerS = append(opsPerS, cw.rate)
		cpuPerOp = append(cpuPerOp, cw.cpuUS/float64(cw.ops))
		closed.ops += cw.ops
		closed.mallocs += cw.mallocs
		closed.attempted += cw.attempted
		out.attempted += cw.attempted
		out.failed += cw.failed

		ow := d.open(sh.window, w.arrivalRate(), false)
		out.attempted += ow.attempted
		out.failed += ow.failed
		late, _ := percentile(ow.late, 0.99)
		lateP99 = append(lateP99, late)
		if late > maxLateMS {
			continue
		}
		valid++
		for op := range lat {
			lat[op] = append(lat[op], ow.lat[op]...)
		}
		over, arrivals := ow.overLimit(w.limitMS)
		overLimit += over
		openArrivals += arrivals
	}
	runtime.GC()
	seq := d.sequential(sh.window)
	if seq.ops == 0 {
		return nil, fmt.Errorf("the sequential window completed no operation")
	}
	out.attempted += seq.attempted
	out.failed += seq.failed
	if bad := d.bad.Load(); bad != nil {
		return nil, fmt.Errorf("incorrect reply: %w", *bad)
	}
	if err := finalCheck(c); err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	// The remaining set-ups are timed on a process that has served; the
	// recovery pass then journals onto the last of them, so the log a
	// restart replays is a set-up plus a fixed number of pairs whatever the
	// windows wrote.
	for len(setupS) < sh.setups {
		if err := c.close(); err != nil {
			return nil, fmt.Errorf("close: %w", err)
		}
		releaseMemory()
		s, err := timeSetup()
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, s)
	}
	recoverS, err := recoveryPass(d, sh, out)
	if err != nil {
		return nil, fmt.Errorf("recovery pass: %w", err)
	}

	m := out.metrics
	served := float64(closed.attempted) // every operation the closed-loop windows sent, drain included
	// The fastest of the timed set-ups: between one quarter hour and the
	// next their median moved by up to 32 % on unchanged code, their minimum
	// by 7 % (README.md).
	setups := medianOf(setupS)
	setups.value = setups.min
	m.set("setup_s", setups)
	m.set("mallocs_per_op", one(float64(seq.mallocs)/float64(seq.ops), int(seq.ops)))
	m.set("wal_bytes_per_op", one(float64(walBytes)/served, int(closed.attempted)))
	m.set("wire_bytes_per_op", one(float64(wireBytes)/served, int(closed.attempted)))
	m.set("rss_peak_mb", one(rss, 1))

	// The time metrics: printed by every run, gated by none (README.md).
	for op := range lat {
		sort.Float64s(lat[op])
	}
	ops, cpu, rec := medianOf(opsPerS), medianOf(cpuPerOp), medianOf(recoverS)
	out.notes = append(out.notes, "ungated on this host, see README.md:",
		fmt.Sprintf("  ops_per_s     %.6g 1/s, quartiles [%.6g, %.6g] of %d closed-loop windows, %d operations", ops.value, ops.q1, ops.q3, ops.reps, closed.ops),
		fmt.Sprintf("  cpu_us_per_op %.6g us, quartiles [%.6g, %.6g] (generator included)", cpu.value, cpu.q1, cpu.q3),
		fmt.Sprintf("  mallocs_per_op under the closed loop %.6g (re-solved plans included)", float64(closed.mallocs)/float64(closed.ops)),
		fmt.Sprintf("  recover_s     %.6g s, quartiles [%.6g, %.6g] of %d restarts", rec.value, rec.q1, rec.q3, rec.reps))
	for _, op := range []opKind{opAlloc, opBorrow, opShare, opRevoke} {
		if v, ok := percentile(lat[op], 0.50); ok {
			out.notes = append(out.notes, fmt.Sprintf("  %s_p50_ms %.6g ms, %d samples; %s", opNames[op], v, len(lat[op]), tailNote(lat[op])))
		} else if op == opAlloc {
			out.notes = append(out.notes, fmt.Sprintf("  alloc_p50_ms not reported: %d samples are too few for a median", len(lat[op])))
		}
	}
	late := medianOf(lateP99)
	out.notes = append(out.notes,
		fmt.Sprintf("  open loop at %.0f ops/s: %d of %d windows kept (gen.late_p99_ms <= %d; median %.3f, worst %.3f); %d of %d requests failed or ran over the %.3g ms limit",
			w.openRate, valid, sh.reps, maxLateMS, late.value, late.max, overLimit, openArrivals, w.limitMS),
		fmt.Sprintf("fail_share %.6f (%d of %d operations failed or were refused)", float64(out.failed)/float64(out.attempted), out.failed, out.attempted))
	if first := d.refused.Load(); first != nil {
		out.notes = append(out.notes, fmt.Sprintf("first failure: %v", *first))
	}
	return out, nil
}

// tailNote words the highest percentile of an ascending latency sample
// that has ten samples beyond it, up to the p99.
func tailNote(sorted []float64) string {
	q, v, ok := tailPercentile(sorted)
	if !ok {
		return "too few samples for a percentile above the median"
	}
	return fmt.Sprintf("p%.3g %.6g ms, max %.6g ms", 100*q, v, sorted[len(sorted)-1])
}

// recoveryPass journals a fixed number of allocate+release pairs through
// Handle, closes everything, and restarts from the logs several times,
// checking each restart against the status the close interrupted.
func recoveryPass(d *driver, sh shape, out *outcome) ([]float64, error) {
	c := d.c
	c.hangUp()
	rng := d.newRNG()
	for i := 0; i < sh.recoverPairs; i++ {
		who := c.ids[c.pop.live[i%2]]
		amount := c.w.amount(rng)
		if c.w.oversize != nil && i%oversizeEvery == oversizeEvery-1 {
			amount = c.w.oversize(rng)
		}
		out.attempted += 2
		resp := c.leaf.Handle(&grm.Request{Alloc: &grm.AllocRequest{Principal: who, Amount: amount}})
		if resp.Err != "" {
			out.failed += 2
			continue
		}
		if err := checkAlloc(resp.Alloc, amount); err != nil {
			return nil, err
		}
		if resp := c.leaf.Handle(&grm.Request{Release: &grm.ReleaseRequest{Lease: resp.Alloc.Lease}}); resp.Err != "" {
			out.failed++
		}
	}
	before, err := c.leaf.Status()
	if err != nil {
		return nil, err
	}
	var seconds []float64
	for i := 0; i < sh.restarts; i++ {
		if err := c.close(); err != nil {
			return nil, fmt.Errorf("close: %w", err)
		}
		releaseMemory()
		took, after, err := c.restart()
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		if err := checkRecovered(before, after); err != nil {
			return nil, err
		}
		seconds = append(seconds, took.Seconds())
	}
	return seconds, nil
}

// finalCheck verifies the books once every lease is back.
func finalCheck(c *cluster) error {
	st, err := c.leaf.Status()
	if err != nil {
		return err
	}
	if err := checkBooks(c.w.name, st); err != nil {
		return err
	}
	if c.root == nil {
		return nil
	}
	if st, err = c.root.Status(); err != nil {
		return err
	}
	return checkBooks(c.w.name+" root", st)
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
