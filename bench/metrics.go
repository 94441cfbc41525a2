package main

// The metric tables. BENCHMARK.json lists exactly these names, units,
// directions and bounds (bench_test.go holds the two in step); README.md
// says how each is taken and which end-to-end metric each layer metric
// should move.

type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the served GRM pays, in the currencies that
// repeat on a shared host: set-up time, heap allocations, log and wire
// bytes, memory. Every workload emits every one; none is ever zero. The
// time metrics a user sees first (throughput, latency, recovery) are
// printed by every run and listed per layer instead: README.md says why.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"mallocs_per_op", "count", "lower", 0.02},
	{"wal_bytes_per_op", "B", "lower", 0.02},
	{"wire_bytes_per_op", "B", "lower", 0.02},
	{"rss_peak_mb", "MB", "lower", 0.25},
}

// perLayer is the traced pass: calls into each layer's public API timed
// from this package. The module name is the prefix. Ungated.
var perLayer = []metricDef{
	{"lp.solve_us", "us", "lower", 0},
	{"lp.solve_pivots", "count", "lower", 0},
	{"lp.solve_mallocs", "count", "lower", 0},
	{"core.plan_us", "us", "lower", 0},
	{"core.plan_batch16_us", "us", "lower", 0},
	{"core.plan_mallocs", "count", "lower", 0},
	{"core.self_us", "us", "lower", 0},
	{"core.new_allocator_ms", "ms", "lower", 0},
	{"core.set_share_us", "us", "lower", 0},
	{"agreement.sparse_matrices_ms", "ms", "lower", 0},
	{"transitive.closure_build_ms", "ms", "lower", 0},
	{"transitive.update_edge_us", "us", "lower", 0},
	{"transitive.capacities_us", "us", "lower", 0},
	{"transitive.closure_mb", "MB", "lower", 0},
	{"store.append_us", "us", "lower", 0},
	{"store.sync_us", "us", "lower", 0},
	{"store.record_bytes", "B", "lower", 0},
	{"store.replay_ms_per_krec", "ms", "lower", 0},
	{"transport.echo_rtt_us", "us", "lower", 0},
	{"transport.codec_ns_per_msg", "ns", "lower", 0},
	{"transport.self_us", "us", "lower", 0},
	{"grm.handle_alloc_us", "us", "lower", 0},
	{"grm.handle_release_us", "us", "lower", 0},
	{"grm.ping_rtt_us", "us", "lower", 0},
	{"grm.self_us", "us", "lower", 0},
	{"grm.batch_mean_size", "count", "higher", 0},
	{"grm.batch_plan_us", "us", "lower", 0},
	{"grm.max_batch", "count", "higher", 0},
	{"grm.plan_conflicts", "count", "lower", 0},
	{"grm.queue_depth_p90", "count", "lower", 0},
	{"grm.status_ms", "ms", "lower", 0},
	{"grm.borrow_rtt_us", "us", "lower", 0},
	{"grm.recover_s", "s", "lower", 0},
	{"client.ops_per_s", "1/s", "higher", 0},
	{"client.alloc_p50_ms", "ms", "lower", 0},
	{"client.alloc_tail_ms", "ms", "lower", 0},
	{"client.alloc_tail_pct", "%", "higher", 0},
	{"client.alloc_max_ms", "ms", "lower", 0},
	{"client.release_p50_ms", "ms", "lower", 0},
	{"client.share_p50_ms", "ms", "lower", 0},
	{"client.revoke_p50_ms", "ms", "lower", 0},
	{"client.borrow_p50_ms", "ms", "lower", 0},
	{"client.samples", "count", "higher", 0},
	{"gen.cpu_us_per_op", "us", "lower", 0},
	{"gen.late_p99_ms", "ms", "lower", 0},
	{"gen.over_limit_share", "ratio", "lower", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
}

// reading is one metric's value in one run.
type reading struct {
	fold
	unit string
}

// readings maps metric name → value for one run of one workload.
type readings map[string]reading

func (r readings) set(name string, f fold) {
	for _, table := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range table {
			if m.name == name {
				r[name] = reading{fold: f, unit: m.unit}
				return
			}
		}
	}
	panic("bench: metric " + name + " is not in the tables")
}

// one is a fold of a single value backed by n samples.
func one(v float64, n int) fold {
	return fold{value: v, q1: v, q3: v, min: v, max: v, reps: 1, samples: n}
}
