package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/grm"
	"repro/internal/grm/transport"
	"repro/internal/lp"
	"repro/internal/store"
	"repro/internal/transitive"
)

// The traced pass. It serves the same workload once more with a WAL
// decorator and traced generator lanes, then times calls into each
// layer's public API on the workload's own matrices and record shapes.
// End-to-end numbers never come from here.

// probeMax caps the calls of one layer measurement; see probe.pace.
const probeMax = 2000

// sample times fn call by call while more allows, recording a span each,
// and returns the durations in microseconds, ascending.
func (t *tracer) sample(name string, more func(i int) bool, fn func(i int) error) ([]float64, error) {
	var us []float64
	for i := 0; more(i); i++ {
		var err error
		s := t.timed(name, uint64(i), func() { err = fn(i) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		us = append(us, s.us())
	}
	sort.Float64s(us)
	return us, nil
}

// mallocsPer counts heap allocations per call of fn over n calls. The
// servers are idle while it runs, so the count is fn's own.
func mallocsPer(n int, fn func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

func med(sorted []float64) fold { return one(quantile(sorted, 0.5), len(sorted)) }

// mirror is the agreement system of the shard serving connection 0,
// rebuilt from the population through the calls the server's register and
// share handlers make, so layer calls run on the workload's own matrices
// without reaching into the server.
type mirror struct {
	sys       *agreement.System
	caps      []float64
	requester int // shard-local index of the connection's principal
	neighbor  int
}

func newMirror(c *cluster) (*mirror, error) {
	pop := c.pop
	shard := c.shardOf(pop.names[pop.live[0]])
	m := &mirror{sys: agreement.NewSystem()}
	local := make([]int, len(pop.names))
	for i, name := range pop.names {
		local[i] = -1
		if c.shardOf(name) != shard {
			continue
		}
		pid := m.sys.AddPrincipal(name)
		if _, err := m.sys.AddResource(name, agreement.General, pid, pop.caps[i]); err != nil {
			return nil, err
		}
		local[i] = int(pid)
		m.caps = append(m.caps, pop.caps[i])
	}
	for _, sh := range pop.shares {
		if local[sh.from] < 0 {
			continue
		}
		from := m.sys.CurrencyOf(agreement.PrincipalID(local[sh.from]))
		to := m.sys.CurrencyOf(agreement.PrincipalID(local[sh.to]))
		var err error
		if sh.fraction > 0 {
			_, err = m.sys.ShareRelative(from, to, sh.fraction*m.sys.Currency(from).FaceValue)
		} else {
			_, err = m.sys.ShareAbsolute(from, to, agreement.General, sh.quantity, agreement.Sharing)
		}
		if err != nil {
			return nil, err
		}
	}
	m.requester, m.neighbor = local[pop.live[0]], local[pop.neighbor[0]]
	return m, nil
}

// schedulerModel builds, through the public lp.Model API, the LP the
// scheduler solves for one request — core's substituted formulation: a V'
// variable per principal plus θ, the consume row, and a perturb row per
// principal other than the requester (absolute agreements linearized with
// their u variables). With component set it covers only the requester's
// agreement component, as core.Config.ComponentLP does; otherwise all n
// principals. Only the consume row's right-hand side depends on the
// amount; rebind sets it, the way core rebinds its cached skeleton.
type schedulerLP struct {
	model   *lp.Model
	theta   lp.VarID
	consume int     // row index of Σ V' = Σ V − amount
	total   float64 // Σ V over the model's principals
}

func (s *schedulerLP) rebind(amount float64) { s.model.SetRHS(s.consume, s.total-amount) }

func schedulerModel(al *core.Allocator, sm *agreement.SparseMatrices, v []float64, requester int, component bool) *schedulerLP {
	n := al.N()
	k := al.FlowCoefficients()
	abs := func(from, to int) float64 { return sm.A.At(from, to) }
	linked := func(i, j int) bool { return k[i][j] > 0 || k[j][i] > 0 || abs(i, j) > 0 || abs(j, i) > 0 }
	member := make([]bool, n)
	live := []int{requester}
	member[requester] = true
	for x := 0; x < len(live); x++ {
		for j := 0; j < n; j++ {
			if !member[j] && (!component || linked(live[x], j)) {
				member[j] = true
				live = append(live, j)
			}
		}
	}
	sort.Ints(live)
	flow := func(from, to int) float64 { return math.Min(v[from]*k[from][to]+abs(from, to), v[from]) }

	m := lp.NewModel(lp.Minimize)
	const eps = 1e-6
	vp := map[int]lp.VarID{}
	var total float64
	for _, i := range live {
		var conn float64
		for j := 0; j < n; j++ {
			if j != i {
				conn += k[i][j]
			}
		}
		lo := 0.0 // the requester may spend all of its own
		if i != requester {
			lo = math.Max(0, v[i]-flow(i, requester))
		}
		vp[i] = m.AddVar(fmt.Sprintf("V'_%d", i), lo, v[i], -eps*conn)
		total += v[i]
	}
	theta := m.AddVar("theta", 0, lp.Inf, 1)
	sum := make([]lp.Term, 0, len(live))
	for _, i := range live {
		sum = append(sum, lp.Term{Var: vp[i], Coeff: 1})
	}
	consume := m.AddConstraint("consume", sum, lp.EQ, total)
	for _, i := range live {
		if i == requester {
			continue
		}
		terms := []lp.Term{{Var: vp[i], Coeff: 1}, {Var: theta, Coeff: 1}}
		capacity := v[i]
		for _, src := range live {
			if src == i || (k[src][i] <= 0 && abs(src, i) <= 0) {
				continue
			}
			capacity += flow(src, i)
			if a := abs(src, i); a > 0 {
				u := m.AddVar(fmt.Sprintf("u_%d_%d", src, i), 0, lp.Inf, 0)
				m.AddConstraint("cap_flow", []lp.Term{{Var: u, Coeff: 1}, {Var: vp[src], Coeff: -k[src][i]}}, lp.LE, a)
				m.AddConstraint("cap_own", []lp.Term{{Var: u, Coeff: 1}, {Var: vp[src], Coeff: -1}}, lp.LE, 0)
				terms = append(terms, lp.Term{Var: u, Coeff: 1})
			} else {
				terms = append(terms, lp.Term{Var: vp[src], Coeff: k[src][i]})
			}
		}
		m.AddConstraint(fmt.Sprintf("perturb_%d", i), terms, lp.GE, capacity)
	}
	return &schedulerLP{model: m, theta: theta, consume: consume, total: total}
}

// echoCodec makes a transport.Server an echo service: the reply payload is
// the request payload.
type echoCodec struct{}

func (echoCodec) DecodeRequest(data []byte) (any, error) { return append([]byte(nil), data...), nil }
func (echoCodec) AppendResponse(dst []byte, resp any) ([]byte, error) {
	return append(dst, resp.([]byte)...), nil
}

// echoRTT times framed round trips through a transport.Server whose
// handler does nothing: the connection plane alone, over loopback.
func echoRTT(t *tracer, more func(i int) bool) ([]float64, error) {
	srv := transport.NewServer(func() any { return nil },
		transport.HandlerFunc(func(req any) any { return req }), transport.Options{Codec: echoCodec{}})
	addr, err := serve(srv)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(time.Minute)); err != nil {
		return nil, err
	}
	if err := transport.WriteHello(conn, transport.Version); err != nil {
		return nil, err
	}
	br := bufio.NewReader(conn)
	if _, err := transport.ReadHello(br); err != nil {
		return nil, err
	}
	fw, fr := transport.NewFrameWriter(conn), transport.NewFrameReader(br)
	payload := make([]byte, 32) // about one allocation request
	return t.sample("transport.echo", more, func(i int) error {
		err := fw.WriteFrame(uint64(i), func(dst []byte) ([]byte, error) { return append(dst, payload...), nil })
		if err != nil {
			return err
		}
		_, _, err = fr.ReadFrame()
		return err
	})
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// tracedShape is how the traced pass divides its time: three windows and
// a budget per layer probe.
func (o options) tracedShape() (window, probe time.Duration) {
	if o.smoke {
		return 100 * time.Millisecond, 10 * time.Millisecond
	}
	return time.Duration(o.seconds / 8 * float64(time.Second)), time.Duration(o.seconds / 40 * float64(time.Second))
}

// probe is the traced pass's working state.
type probe struct {
	w   *workload
	o   options
	c   *cluster
	d   *driver
	tr  *tracer
	out *outcome
	m   readings
	rng *rand.Rand
	// Each layer measurement makes at least minCalls calls, then goes on
	// until its share of budget is spent (or probeMax calls are made), so a
	// 1 ms plan and a 2 us append both get a usable sample inside the cap.
	minCalls int
	budget   time.Duration

	// amounts is the sampled request sequence every allocation probe
	// serves, against full availability, so their medians subtract.
	amounts []float64
	mir     *mirror
	sm      *agreement.SparseMatrices
	al      *core.Allocator
}

func (p *probe) amount(i int) float64 { return p.amounts[i%len(p.amounts)] }

// pace returns the loop condition of one measurement that may spend scale
// budgets, starting now.
func (p *probe) pace(scale int) func(i int) bool {
	start, limit := time.Now(), time.Duration(scale)*p.budget
	return func(i int) bool { return i < probeMax && (i < p.minCalls || time.Since(start) < limit) }
}

func runTraced(w *workload, o options) (*outcome, error) {
	sh := o.shape(w)
	winDur, budget := o.tracedShape()
	dir := filepath.Join(o.outDir, "wal-traced-"+w.name)
	defer os.RemoveAll(dir)

	p := &probe{w: w, o: o, tr: &tracer{}, out: &outcome{metrics: readings{}}, minCalls: 5, budget: budget}
	if o.smoke {
		p.minCalls = 1
	}
	p.m = p.out.metrics
	p.c = &cluster{w: w, dir: dir, wrapLog: func(l store.Log) store.Log { return tracedLog{Log: l, t: p.tr} }}
	defer p.c.close()
	if err := setup(p.c, o.seed, sh.principals); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	p.d = &driver{c: p.c, seed: o.seed}
	p.rng = p.d.newRNG()
	p.amounts = make([]float64, 64)
	for i := range p.amounts {
		p.amounts[i] = w.amount(p.rng)
	}

	steps := []func() error{
		func() error { return p.windows(sh.warm, winDur) },
		p.layers,
		p.allocationBudget,
		p.shareRevoke,
		p.borrowHop,
		p.books,
		p.wal,
		p.wire,
		func() error { return p.recovery(sh) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	path := filepath.Join(o.outDir, "trace-"+w.name+".jsonl")
	if err := p.tr.write(path); err != nil {
		return nil, err
	}
	p.out.notes = append(p.out.notes, fmt.Sprintf("%d spans written to %s", p.tr.len(), path))
	return p.out, nil
}

// windows takes the generator's own view (an untraced and a traced
// open-loop window) and the pipeline's counters over a closed-loop one.
func (p *probe) windows(warm, dur time.Duration) error {
	w, c, d, m := p.w, p.c, p.d, p.m
	rate := w.arrivalRate()
	d.closed(warm, nil)
	plain := d.open(dur, rate, false)
	p.tr.on.Store(true)
	traced := d.open(dur, rate, true)
	p.tr.add(traced.spans...)
	p.tr.on.Store(false)

	before, err := c.leaf.Status()
	if err != nil {
		return err
	}
	var depths []float64
	cw := d.closed(dur, func(stop <-chan struct{}) {
		tick := time.NewTicker(dur / 8)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if st, err := c.leaf.Status(); err == nil {
					depths = append(depths, float64(st.QueueDepth))
				}
			}
		}
	})
	after, err := c.leaf.Status()
	if err != nil {
		return err
	}
	for _, win := range []*window{plain, traced, cw} {
		p.out.attempted += win.attempted
		p.out.failed += win.failed
	}

	allocs := traced.lat[opAlloc]
	p50Plain, ok1 := percentile(plain.lat[opAlloc], 0.5)
	p50Traced, ok2 := percentile(allocs, 0.5)
	strict := !p.o.smoke // the smoke run checks plumbing, not numbers
	if len(allocs) == 0 || len(plain.lat[opAlloc]) == 0 || (strict && !(ok1 && ok2)) {
		return fmt.Errorf("traced open-loop window kept %d allocation samples, too few for a median", len(allocs))
	}
	tailQ, tailMS, ok := tailPercentile(allocs)
	if !ok {
		if strict {
			return fmt.Errorf("traced open-loop window kept %d allocation samples, too few for a percentile above the median", len(allocs))
		}
		tailQ, tailMS = 1, allocs[len(allocs)-1]
	}
	m.set("client.alloc_p50_ms", one(p50Traced, len(allocs)))
	m.set("client.alloc_tail_ms", one(tailMS, len(allocs)))
	m.set("client.alloc_tail_pct", one(100*tailQ, len(allocs)))
	m.set("client.alloc_max_ms", one(allocs[len(allocs)-1], len(allocs)))
	m.set("client.release_p50_ms", med(traced.lat[opRelease]))
	m.set("client.samples", one(float64(len(allocs)), len(allocs)))
	m.set("trace.overhead_share", one((p50Traced-p50Plain)/p50Plain, len(allocs)))
	late, _ := percentile(traced.late, 0.99)
	m.set("gen.late_p99_ms", one(late, len(traced.late)))
	if late > maxLateMS {
		p.out.notes = append(p.out.notes, fmt.Sprintf("open-loop window INVALID: the generator ran %.3f ms behind schedule at p99", late))
	}
	over, arrivals := traced.overLimit(w.limitMS)
	m.set("gen.over_limit_share", one(float64(over)/float64(arrivals), arrivals))

	batches := int(after.Batches - before.Batches)
	if batches == 0 {
		return fmt.Errorf("the closed-loop window committed no batch")
	}
	m.set("grm.batch_mean_size", one(float64(after.BatchedRequests-before.BatchedRequests)/float64(batches), batches))
	m.set("grm.batch_plan_us", one(float64(after.BatchPlanNanos-before.BatchPlanNanos)/float64(batches)/1e3, batches))
	m.set("grm.max_batch", one(float64(after.MaxBatch), batches))
	m.set("grm.plan_conflicts", one(float64(after.PlanConflicts-before.PlanConflicts), batches))
	sort.Float64s(depths)
	m.set("grm.queue_depth_p90", one(quantile(depths, 0.9), len(depths)))
	m.set("gen.cpu_us_per_op", one(cw.cpuUS/float64(cw.ops), int(cw.ops)))
	m.set("client.ops_per_s", one(cw.rate, int(cw.ops)))
	return nil
}

// layers times the calls under the server on the workload's own matrices:
// the collapse to S and A, the allocator build, the closure and its delta,
// capacities, and the COW share mutator.
func (p *probe) layers() error {
	tr, m, cfg := p.tr, p.m, p.w.cfg
	var err error
	if p.mir, err = newMirror(p.c); err != nil {
		return err
	}
	mir := p.mir
	sparse, err := tr.sample("agreement.sparse_matrices", p.pace(1), func(int) (err error) {
		p.sm, err = mir.sys.SparseMatrices(agreement.General)
		return err
	})
	if err != nil {
		return err
	}
	m.set("agreement.sparse_matrices_ms", one(quantile(sparse, 0.5)/1e3, len(sparse)))
	newAl, err := tr.sample("core.new_allocator", p.pace(1), func(int) (err error) {
		p.al, err = core.NewAllocatorSparse(p.sm.S, p.sm.A, cfg)
		return err
	})
	if err != nil {
		return err
	}
	m.set("core.new_allocator_ms", one(quantile(newAl, 0.5)/1e3, len(newAl)))

	n := p.sm.S.N()
	cols, vals := make([][]int32, n), make([][]float64, n)
	for i := range cols {
		cols[i], vals[i] = p.sm.S.Row(i)
	}
	var clo *transitive.Closure
	build, err := tr.sample("transitive.closure_build", p.pace(1), func(int) error {
		clo = transitive.NewClosureCSR(n, cols, vals, n, cfg.Approx)
		return nil
	})
	if err != nil {
		return err
	}
	m.set("transitive.closure_build_ms", one(quantile(build, 0.5)/1e3, len(build)))
	m.set("transitive.closure_mb", one(float64(n)*float64(n)*8/1e6, 1))
	edge := clo.Edge(mir.requester, mir.neighbor)
	update, err := tr.sample("transitive.update_edge", p.pace(1), func(int) error {
		_, _, err := clo.UpdateEdge(mir.requester, mir.neighbor, edge, edge+churnFraction)
		return err
	})
	if err != nil {
		return err
	}
	m.set("transitive.update_edge_us", med(update))
	dst, dense := make([]float64, n), p.sm.A.Dense()
	capsUS, err := tr.sample("transitive.capacities", p.pace(1), func(int) error {
		transitive.CapacitiesInto(dst, mir.caps, clo.T(), dense)
		return nil
	})
	if err != nil {
		return err
	}
	m.set("transitive.capacities_us", med(capsUS))
	setShare, err := tr.sample("core.set_share", p.pace(1), func(int) error {
		_, err := p.al.SetShare(mir.requester, mir.neighbor, edge, edge+churnFraction)
		return err
	})
	if err != nil {
		return err
	}
	m.set("core.set_share_us", med(setShare))
	return nil
}

// allocationBudget prices one idle allocation layer by layer. Each round
// serves the same request four ways back to back — over the wire, through
// Handle in process, through core.Plan, through lp alone — so a drift in
// machine speed during the pass hits all four alike and the medians
// subtract.
func (p *probe) allocationBudget() error {
	c, tr, m, mir := p.c, p.tr, p.m, p.mir
	l0, who := c.lrms[0], c.ids[c.pop.live[0]]
	slp := schedulerModel(p.al, p.sm, mir.caps, mir.requester, p.w.cfg.ComponentLP)
	var ws lp.Workspace
	var wireUS, handleUS, selfUS, releaseUS, planUS, solveUS []float64
	var pivots float64
	for i, more := 0, p.pace(6); more(i); i++ {
		amount := p.amount(i)
		us, err := p.wireAlloc("client.alloc_idle", uint64(i), amount)
		if err != nil {
			return fmt.Errorf("wire probe: %w", err)
		}
		wireUS = append(wireUS, us)

		h, self, resp := p.handleAlloc(uint64(i), who, amount)
		if resp.Err != "" {
			return fmt.Errorf("handle probe: %s", resp.Err)
		}
		if err := checkAlloc(resp.Alloc, amount); err != nil {
			return err
		}
		handleUS = append(handleUS, h.us())
		selfUS = append(selfUS, float64(self)/1e3)
		r := tr.timed("grm.handle_release", uint64(i), func() {
			resp = c.leaf.Handle(&grm.Request{Release: &grm.ReleaseRequest{Lease: resp.Alloc.Lease}})
		})
		if resp.Err != "" {
			return fmt.Errorf("handle probe: %s", resp.Err)
		}
		releaseUS = append(releaseUS, r.us())

		var plan *core.Allocation
		s := tr.timed("core.plan", uint64(i), func() { plan, err = p.al.Plan(mir.caps, mir.requester, amount) })
		if err != nil {
			return fmt.Errorf("plan probe: %w", err)
		}
		planUS = append(planUS, s.us())

		slp.rebind(amount)
		var sol *lp.Solution
		// Solved the way core solves it: the tableau method over a reused
		// workspace.
		s = tr.timed("lp.solve", uint64(i), func() { sol, err = slp.model.SolveWithWorkspace(lp.Tableau, &ws) })
		if err != nil {
			return fmt.Errorf("solve probe: %w", err)
		}
		// The model must be the scheduler's: same optimum as core.Plan.
		if got := sol.Value(slp.theta); math.Abs(got-plan.Theta) > 1e-6*math.Max(1, plan.Theta) {
			return fmt.Errorf("solve probe: model optimum theta %g, core.Plan found %g", got, plan.Theta)
		}
		solveUS = append(solveUS, s.us())
		pivots = float64(sol.Pivots)
	}
	for _, us := range [][]float64{wireUS, handleUS, selfUS, releaseUS, planUS, solveUS} {
		sort.Float64s(us)
	}
	rounds := len(wireUS)
	wire, handle, self, plan, solve := quantile(wireUS, 0.5), quantile(handleUS, 0.5), quantile(selfUS, 0.5), quantile(planUS, 0.5), quantile(solveUS, 0.5)
	m.set("grm.handle_alloc_us", one(handle, rounds))
	m.set("grm.handle_release_us", med(releaseUS))
	m.set("core.plan_us", one(plan, rounds))
	m.set("lp.solve_us", one(solve, rounds))
	m.set("lp.solve_pivots", one(pivots, rounds))
	m.set("transport.self_us", one(wire-handle, rounds))
	m.set("grm.self_us", one(self-plan, rounds))
	m.set("core.self_us", one(plan-solve, rounds))
	m.set("core.plan_mallocs", one(mallocsPer(rounds, func(i int) {
		p.al.Plan(mir.caps, mir.requester, p.amount(i)) //nolint:errcheck // the same calls succeeded above
	}), rounds))
	m.set("lp.solve_mallocs", one(mallocsPer(rounds, func(int) {
		slp.model.SolveWithWorkspace(lp.Tableau, &ws) //nolint:errcheck // as above
	}), rounds))

	batch := make([]core.BatchRequest, 16)
	for i := range batch {
		batch[i] = core.BatchRequest{Requester: mir.requester, Amount: p.amount(i)}
	}
	plan16, err := tr.sample("core.plan_batch16", p.pace(1), func(int) error {
		for _, res := range p.al.PlanBatch(mir.caps, batch) {
			if res.Err != nil {
				return res.Err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("core.plan_batch16_us", med(plan16))
	ping, err := tr.sample("grm.ping", p.pace(1), func(int) error { return l0.Ping() })
	if err != nil {
		return err
	}
	m.set("grm.ping_rtt_us", med(ping))

	appended := handle - self
	p.out.notes = append(p.out.notes,
		fmt.Sprintf("budget of one idle allocation (medians of %d interleaved rounds, us):", rounds),
		fmt.Sprintf("  client LRM.Allocate over the wire        %10.1f", wire),
		fmt.Sprintf("    transport.self = wire - handle         %10.1f  (%5.1f%% of wire)", wire-handle, 100*(wire-handle)/wire),
		fmt.Sprintf("    grm Handle(alloc) in process           %10.1f  (%5.1f%% of wire)", handle, 100*handle/wire),
		fmt.Sprintf("      grm.self = handle - append - plan    %10.1f  (%5.1f%% of handle)", self-plan, 100*(self-plan)/handle),
		fmt.Sprintf("      store.append spans inside Handle     %10.1f  (%5.1f%% of handle)", appended, 100*appended/handle),
		fmt.Sprintf("      core.Plan                            %10.1f  (%5.1f%% of handle)", plan, 100*plan/handle),
		fmt.Sprintf("        core.self = plan - solve           %10.1f", plan-solve),
		fmt.Sprintf("        lp.Solve                           %10.1f  (%5.1f%% of handle)", solve, 100*solve/handle),
	)
	return nil
}

// wireAlloc times one checked LRM.Allocate on connection 0 as a span named
// name, releases the lease, and returns the allocation's microseconds.
func (p *probe) wireAlloc(name string, req uint64, amount float64) (float64, error) {
	l0 := p.c.lrms[0]
	var reply *grm.AllocReply
	var err error
	s := p.tr.timed(name, req, func() { reply, err = l0.Allocate(amount) })
	if err == nil {
		err = checkAlloc(reply, amount)
	}
	if err == nil {
		err = l0.Release(reply.Lease)
	}
	return s.us(), err
}

// handleAlloc serves one allocation through Handle in process as a span,
// with the WAL appends it causes recorded as its children, and returns
// the span, its self time, and the reply.
func (p *probe) handleAlloc(req uint64, who int, amount float64) (span, time.Duration, *grm.Response) {
	tr := p.tr
	mark := tr.len()
	s := span{Name: "grm.handle_alloc", Req: req, Start: time.Now()}
	tr.current.Store(&s)
	tr.on.Store(true)
	resp := p.c.leaf.Handle(&grm.Request{Alloc: &grm.AllocRequest{Principal: who, Amount: amount}})
	tr.on.Store(false)
	s.End = time.Now()
	tr.current.Store(nil)
	self := selfTime(s, tr.since(mark))
	tr.add(s)
	return s, self, resp
}

// shareRevoke times share and revoke over the wire on a live planner: an
// allocation first, so the share patches a planner rather than finding
// none; the revoke then discards it and the next round's allocation pays
// the rebuild.
func (p *probe) shareRevoke() error {
	c, tr := p.c, p.tr
	l0, neighbor := c.lrms[0], c.ids[c.pop.neighbor[0]]
	var shareUS, revokeUS []float64
	for i, more := 0, p.pace(4); more(i); i++ {
		reply, err := l0.Allocate(p.amount(i))
		if err == nil {
			err = l0.Release(reply.Lease)
		}
		if err != nil {
			return fmt.Errorf("share probe: %w", err)
		}
		var ticket int
		s := tr.timed("client.share", uint64(i), func() { ticket, err = l0.ShareRelative(neighbor, churnFraction) })
		if err != nil {
			return fmt.Errorf("share probe: %w", err)
		}
		shareUS = append(shareUS, s.us())
		s = tr.timed("client.revoke", uint64(i), func() { err = l0.Revoke(ticket) })
		if err != nil {
			return fmt.Errorf("revoke probe: %w", err)
		}
		revokeUS = append(revokeUS, s.us())
	}
	sort.Float64s(shareUS)
	sort.Float64s(revokeUS)
	p.m.set("client.share_p50_ms", one(quantile(shareUS, 0.5)/1e3, len(shareUS)))
	p.m.set("client.revoke_p50_ms", one(quantile(revokeUS, 0.5)/1e3, len(revokeUS)))
	return nil
}

// borrowHop prices the federation round trip: an oversized allocation over
// the wire, and one Allocate on the leaf's parent link. A workload without
// a root gets one for this probe only, attached after its windows, so
// every workload prices the hop on its own books.
func (p *probe) borrowHop() error {
	c, tr := p.c, p.tr
	oversize := p.w.oversize
	if c.root == nil {
		c.root = grm.NewServer(core.Config{}, nil)
		var err error
		if c.rootAddr, err = serve(c.root); err != nil {
			return err
		}
		if resp := c.root.Handle(&grm.Request{Register: &grm.RegisterRequest{Name: "peer", Capacity: 1e6}}); resp.Err != "" {
			return fmt.Errorf("probe root: %s", resp.Err)
		}
		if err := c.attach(); err != nil {
			return fmt.Errorf("probe root: %w", err)
		}
		var total float64
		for _, x := range c.pop.caps {
			total += x
		}
		oversize = uniform(2*total, 3*total)
	}
	// The hop alone is the leaf's own parent link: what a borrow waits for
	// is exactly one Allocate on it (the repayment happens on release).
	link := c.leaf.Parent()
	var wireUS, hopUS []float64
	for i, more := 0, p.pace(2); more(i); i++ {
		us, err := p.wireAlloc("client.borrow", uint64(i), oversize(p.rng))
		if err != nil {
			return fmt.Errorf("borrow probe: %w", err)
		}
		wireUS = append(wireUS, us)

		var reply *grm.AllocReply
		s := tr.timed("grm.borrow_rtt", uint64(i), func() { reply, err = link.Allocate(p.amount(i)) })
		if err == nil {
			err = link.Release(reply.Lease)
		}
		if err != nil {
			return fmt.Errorf("borrow probe: parent link: %w", err)
		}
		hopUS = append(hopUS, s.us())
	}
	sort.Float64s(wireUS)
	sort.Float64s(hopUS)
	p.m.set("client.borrow_p50_ms", one(quantile(wireUS, 0.5)/1e3, len(wireUS)))
	p.m.set("grm.borrow_rtt_us", med(hopUS))
	return nil
}

// books reads the status (timed: it is population-sized) and runs the
// final correctness gate on the now idle servers.
func (p *probe) books() error {
	status, err := p.tr.sample("grm.status", p.pace(1), func(int) error { _, err := p.c.leaf.Status(); return err })
	if err != nil {
		return err
	}
	p.m.set("grm.status_ms", one(quantile(status, 0.5)/1e3, len(status)))
	if bad := p.d.bad.Load(); bad != nil {
		return fmt.Errorf("incorrect reply: %w", *bad)
	}
	return finalCheck(p.c)
}

// recovery is the untraced pass's recovery on a fresh set-up, once: the
// fixed journal, close, one checked restart.
func (p *probe) recovery(sh shape) error {
	if err := p.c.close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if err := setup(p.c, p.o.seed, sh.principals); err != nil {
		return fmt.Errorf("set-up for the recovery probe: %w", err)
	}
	sh.restarts = 1
	seconds, err := recoveryPass(p.d, sh, p.out)
	if err != nil {
		return fmt.Errorf("recovery probe: %w", err)
	}
	p.m.set("grm.recover_s", medianOf(seconds))
	return nil
}

// wal times the store layer alone on records shaped like this workload's
// allocations: write-through append, append+fsync, and replay.
func (p *probe) wal() error {
	tr, m, mir := p.tr, p.m, p.mir
	dir := filepath.Join(p.o.outDir, "wal-probe-"+p.w.name)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fl, err := store.OpenFileLog(dir)
	if err != nil {
		return err
	}
	defer fl.Close()
	takes := make([]float64, len(mir.caps))
	takes[mir.requester] = p.amount(0)
	records := 0
	appendUS, err := tr.sample("store.append", p.pace(1), func(i int) error {
		records++
		return fl.Append(&store.Record{Seq: uint64(records), Kind: store.KindAlloc, Principal: mir.requester, Amount: p.amount(0), Takes: takes, Lease: i + 1})
	})
	if err != nil {
		return err
	}
	m.set("store.append_us", med(appendUS))
	syncUS, err := tr.sample("store.sync", p.pace(1), func(i int) error {
		records++
		if err := fl.Append(&store.Record{Seq: uint64(records), Kind: store.KindRelease, Lease: i + 1}); err != nil {
			return err
		}
		return fl.Sync()
	})
	if err != nil {
		return err
	}
	m.set("store.sync_us", med(syncUS))
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	m.set("store.record_bytes", one(float64(size)/float64(records), records))
	replay, err := tr.sample("store.replay", p.pace(1), func(int) error {
		seen := 0
		if err := fl.Replay(func(*store.Record) error { seen++; return nil }); err != nil {
			return err
		}
		if seen != records {
			return fmt.Errorf("replayed %d of %d records", seen, records)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("store.replay_ms_per_krec", one(quantile(replay, 0.5)/float64(records), len(replay)))
	return nil
}

// wire times the connection plane alone: framed echo round trips through a
// transport.Server, and the codec on its own.
func (p *probe) wire() error {
	echo, err := echoRTT(p.tr, p.pace(1))
	if err != nil {
		return err
	}
	p.m.set("transport.echo_rtt_us", med(echo))
	iters := 2000
	if p.o.smoke {
		iters = 200
	}
	codec, err := grm.BenchWireCodec(grm.CodecBinary, iters)
	if err != nil {
		return err
	}
	// One BenchWireCodec exchange is two requests and two replies.
	p.m.set("transport.codec_ns_per_msg", one(codec.NsPerOp/4, 4*iters))
	return nil
}
