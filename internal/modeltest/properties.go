package modeltest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/transitive"
)

// Failure describes one property violation, with everything needed to
// reproduce it: the case seed (regenerate with Generate(rand.New(
// rand.NewSource(Seed)))), the full graph, and a shrunk minimal graph
// still failing the same property.
type Failure struct {
	Seed     int64    `json:"seed"`
	Property string   `json:"property"`
	Msg      string   `json:"msg"`
	Graph    *Graph   `json:"graph"`
	Shrunk   *Graph   `json:"shrunk,omitempty"`
	Mutation Mutation `json:"mutation,omitempty"`
}

// Error formats the failure with its replay seed front and center.
func (f *Failure) Error() string {
	s := fmt.Sprintf("modeltest: property %q failed (replay: -seed %d -iters 1): %s\n  graph: %s",
		f.Property, f.Seed, f.Msg, f.Graph)
	if f.Shrunk != nil {
		s += fmt.Sprintf("\n  shrunk: %s", f.Shrunk)
	}
	return s
}

// Mutation selects a deliberately wrong system-under-test for the
// mutation smoke test: the suite must catch each one (proving the
// properties have teeth), and must catch none when MutNone.
type Mutation int

const (
	// MutNone tests the real code.
	MutNone Mutation = iota
	// MutTransitive emulates a transitive-layer bug: the cycle-free
	// restriction is forgotten, so flow coefficients are computed over
	// walks (transitive.Approx) instead of simple paths and capacities
	// are inflated on any cyclic graph.
	MutTransitive
	// MutLP emulates an LP-layer bug: the solver returns a feasible but
	// suboptimal vertex (modeled by the greedy baseline planner standing
	// in for the LP optimum).
	MutLP
	// MutCore emulates a core-layer round-off repair bug: the largest
	// take silently loses a sliver, breaking Σ takes = amount.
	MutCore
)

// String names the mutation for reports.
func (m Mutation) String() string {
	switch m {
	case MutNone:
		return "none"
	case MutTransitive:
		return "transitive"
	case MutLP:
		return "lp"
	case MutCore:
		return "core"
	default:
		return fmt.Sprintf("mutation(%d)", int(m))
	}
}

// planFractions are the request sizes exercised per requester, as
// fractions of the requester's oracle capacity. 1.0 probes the boundary
// where every source is at its cap.
var planFractions = []float64{0.35, 0.8, 1.0}

// CheckGraph runs every property on one graph against the real code.
// It returns the first violation, or nil. The checks are deterministic:
// requesters, request sizes, scalings and permutations are enumerated,
// not sampled, so a failing graph fails identically on replay and under
// the shrinker.
func CheckGraph(g *Graph) *Failure {
	return CheckGraphMutated(g, MutNone)
}

// CheckGraphMutated is CheckGraph with a deliberate bug injected into the
// system under test (see Mutation). The mutation smoke test uses it to
// prove the property suite detects each class of defect.
func CheckGraphMutated(g *Graph, mut Mutation) *Failure {
	c, err := newChecker(g, mut)
	if err != nil {
		return &Failure{Property: "construct", Msg: err.Error(), Graph: g, Mutation: mut}
	}
	for _, check := range []struct {
		name string
		fn   func() error
	}{
		{"transitive-oracle", c.checkTransitiveOracle},
		{"approx-upper-bound", c.checkApproxUpperBound},
		{"capacity-oracle", c.checkCapacityOracle},
		{"plan-equations", c.checkPlans},
		{"plan-insufficient", c.checkInsufficient},
		{"scale-invariance", c.checkScaling},
		{"monotonic-funding", c.checkMonotonicity},
		{"permutation-invariance", c.checkPermutation},
		{"plan-incremental", c.checkIncrementalPlan},
		{"sparse-rows", func() error { return checkSparseRows(c.al) }},
	} {
		if err := check.fn(); err != nil {
			return &Failure{Property: check.name, Msg: err.Error(), Graph: g, Mutation: mut}
		}
	}
	return nil
}

// checker binds one graph to its oracle and its (possibly mutated)
// system under test.
type checker struct {
	g   *Graph
	o   *Oracle
	al  *core.Allocator
	mut Mutation
	// greedy stands in for the LP under MutLP.
	greedy *core.Greedy
}

func newChecker(g *Graph, mut Mutation) (*checker, error) {
	al, err := core.NewAllocator(g.S, g.A, core.Config{Level: g.Level})
	if err != nil {
		return nil, fmt.Errorf("allocator construction: %w", err)
	}
	c := &checker{g: g, o: NewOracle(g), al: al, mut: mut}
	if mut == MutLP {
		c.greedy, err = core.NewGreedy(g.S, g.A, core.Config{Level: g.Level})
		if err != nil {
			return nil, fmt.Errorf("greedy construction: %w", err)
		}
	}
	return c, nil
}

// sutCapacities returns the system under test's capacity vector.
func (c *checker) sutCapacities(v []float64) []float64 {
	if c.mut == MutTransitive {
		// Bug model: coefficients computed over walks instead of
		// cycle-free chains — Approx standing in where Exact belongs.
		t := transitive.Approx(c.g.S, c.g.maxLevel())
		return transitive.Capacities(v, transitive.Cap(t), c.g.A)
	}
	return c.al.Capacities(v)
}

// sutPlan returns the system under test's allocation for a request.
func (c *checker) sutPlan(v []float64, requester int, amount float64) (*core.Allocation, error) {
	if c.mut == MutLP {
		return c.greedy.Plan(v, requester, amount)
	}
	plan, err := c.al.Plan(v, requester, amount)
	if err == nil && c.mut == MutCore {
		mutateDropResidual(plan)
	}
	return plan, err
}

// mutateDropResidual models a normalizeTakes bug: the largest take
// silently loses a sliver without the allocation being reported
// infeasible.
func mutateDropResidual(plan *core.Allocation) {
	best, bestTake := -1, 0.0
	for i, t := range plan.Take {
		if t > bestTake {
			best, bestTake = i, t
		}
	}
	if best < 0 {
		return
	}
	d := math.Min(bestTake, 0.01+bestTake/8)
	plan.Take[best] -= d
	plan.NewV[best] += d
}

func (c *checker) checkTransitiveOracle() error {
	got := transitive.Exact(c.g.S, c.g.maxLevel())
	want := c.o.T
	for i := range want {
		for j := range want[i] {
			if math.Abs(got[i][j]-want[i][j]) > 1e-9*(1+math.Abs(want[i][j])) {
				return fmt.Errorf("T[%d][%d] = %g, recursive oracle says %g", i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}

func (c *checker) checkApproxUpperBound() error {
	approx := transitive.Approx(c.g.S, c.g.maxLevel())
	for i := range approx {
		for j := range approx[i] {
			if approx[i][j] < c.o.T[i][j]-1e-9*(1+c.o.T[i][j]) {
				return fmt.Errorf("Approx[%d][%d] = %g below Exact %g (walks must dominate simple paths)",
					i, j, approx[i][j], c.o.T[i][j])
			}
		}
	}
	return nil
}

func (c *checker) checkCapacityOracle() error {
	got := c.sutCapacities(c.g.V)
	want := c.o.Capacities(c.g.V)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-7*(1+math.Abs(want[i])) {
			return fmt.Errorf("C[%d] = %g, brute-force oracle says %g", i, got[i], want[i])
		}
	}
	return nil
}

// checkPlans exercises every requester at several request sizes: the
// allocation must satisfy eqns. 1–6 against the oracle, and its realized
// θ must match the independent reference LP's within the tie-break and
// numerical tolerances.
func (c *checker) checkPlans() error {
	caps := c.o.Capacities(c.g.V)
	scale := 1.0
	for _, x := range c.g.V {
		scale = math.Max(scale, x)
	}
	for r := 0; r < c.g.N; r++ {
		for _, frac := range planFractions {
			amount := caps[r] * frac
			if amount <= 0 {
				continue
			}
			plan, err := c.sutPlan(c.g.V, r, amount)
			if err != nil {
				return fmt.Errorf("Plan(requester=%d, amount=%g of C=%g): %w", r, amount, caps[r], err)
			}
			if err := c.o.CheckAllocation(c.g.V, r, amount, plan); err != nil {
				return fmt.Errorf("requester %d amount %g: %w", r, amount, err)
			}
			ref, err := c.o.PlanTheta(c.g.V, r, amount)
			if err != nil {
				return fmt.Errorf("requester %d amount %g: %w", r, amount, err)
			}
			tieTol := c.o.tieTolerance(c.g.V) + 1e-6*scale
			if plan.Theta > ref+tieTol {
				return fmt.Errorf("requester %d amount %g: θ = %g not minimal, reference LP reaches %g (tol %g)",
					r, amount, plan.Theta, ref, tieTol)
			}
			if plan.Theta < ref-1e-6*scale {
				return fmt.Errorf("requester %d amount %g: θ = %g beats the reference optimum %g — oracle disagreement",
					r, amount, plan.Theta, ref)
			}
		}
	}
	return nil
}

// checkInsufficient: a request strictly beyond C_A must be refused with
// ErrInsufficient (eq. 2's feasibility boundary).
func (c *checker) checkInsufficient() error {
	caps := c.o.Capacities(c.g.V)
	for r := 0; r < c.g.N; r++ {
		over := caps[r]*1.01 + 1
		_, err := c.al.Plan(c.g.V, r, over)
		if !errors.Is(err, core.ErrInsufficient) {
			// The error is reported, not propagated (it may even be nil —
			// that IS the failure), so %v is the right verb here.
			//lint:ignore sharingvet/errwrap property-failure description, not error propagation; err may be nil
			return fmt.Errorf("Plan(requester=%d, amount=%g > C=%g) = %v, want ErrInsufficient", r, over, caps[r], err)
		}
	}
	return nil
}

// checkScaling: with only relative agreements the whole model is
// homogeneous of degree one — scaling every availability by λ scales
// capacities, takes and θ by λ. Absolute agreements (fixed quantities)
// legitimately break this, so those graphs are skipped.
func (c *checker) checkScaling() error {
	if c.g.A != nil {
		return nil
	}
	const lambda = 2.0
	scaled := make([]float64, c.g.N)
	for i, x := range c.g.V {
		scaled[i] = x * lambda
	}
	baseCaps := c.sutCapacities(c.g.V)
	scaledCaps := c.sutCapacities(scaled)
	scale := 1.0
	for _, x := range scaled {
		scale = math.Max(scale, x)
	}
	for i := range baseCaps {
		if math.Abs(scaledCaps[i]-lambda*baseCaps[i]) > 1e-7*scale {
			return fmt.Errorf("C[%d](λV) = %g, want λ·C = %g", i, scaledCaps[i], lambda*baseCaps[i])
		}
	}
	caps := c.o.Capacities(c.g.V)
	for r := 0; r < c.g.N; r++ {
		amount := caps[r] * 0.6
		if amount <= 0 {
			continue
		}
		base, err := c.sutPlan(c.g.V, r, amount)
		if err != nil {
			return fmt.Errorf("base plan (requester %d): %w", r, err)
		}
		up, err := c.sutPlan(scaled, r, amount*lambda)
		if err != nil {
			return fmt.Errorf("scaled plan (requester %d): %w", r, err)
		}
		if math.Abs(up.Theta-lambda*base.Theta) > 1e-5*scale {
			return fmt.Errorf("requester %d: θ(λV, λx) = %g, want λθ = %g", r, up.Theta, lambda*base.Theta)
		}
		for i := range base.Take {
			if math.Abs(up.Take[i]-lambda*base.Take[i]) > 1e-5*scale {
				return fmt.Errorf("requester %d: take[%d](λV, λx) = %g, want λ·take = %g",
					r, i, up.Take[i], lambda*base.Take[i])
			}
		}
	}
	return nil
}

// checkMonotonicity: capacities are non-decreasing in every availability
// (each U_ki term is), so added funding can never shrink anyone's reach or
// make a previously feasible request infeasible.
func (c *checker) checkMonotonicity() error {
	base := c.sutCapacities(c.g.V)
	for k := 0; k < c.g.N; k++ {
		bumped := append([]float64(nil), c.g.V...)
		bumped[k] += 1
		after := c.sutCapacities(bumped)
		for i := range base {
			if after[i] < base[i]-1e-9*(1+base[i]) {
				return fmt.Errorf("funding V[%d] += 1 shrank C[%d]: %g -> %g", k, i, base[i], after[i])
			}
		}
	}
	return nil
}

// checkPermutation: principal identity is arbitrary — relabeling
// principals permutes capacities and leaves the optimal θ unchanged (the
// take vectors may differ when optima tie, so only θ and C are compared).
func (c *checker) checkPermutation() error {
	n := c.g.N
	perm := make([]int, n) // rotation: old index i becomes new index perm[i]
	for i := range perm {
		perm[i] = (i + 1) % n
	}
	pg := permuteGraph(c.g, perm)
	pal, err := core.NewAllocator(pg.S, pg.A, core.Config{Level: pg.Level})
	if err != nil {
		return fmt.Errorf("permuted allocator: %w", err)
	}
	base := c.sutCapacities(c.g.V)
	permCaps := pal.Capacities(pg.V)
	scale := 1.0
	for _, x := range base {
		scale = math.Max(scale, x)
	}
	for i := 0; i < n; i++ {
		if math.Abs(permCaps[perm[i]]-base[i]) > 1e-7*scale {
			return fmt.Errorf("C[%d] = %g but permuted C[%d] = %g", i, base[i], perm[i], permCaps[perm[i]])
		}
	}
	if c.mut != MutNone {
		return nil // θ comparison below exercises the real allocator only
	}
	caps := c.o.Capacities(c.g.V)
	tieTol := 2*c.o.tieTolerance(c.g.V) + 1e-6*scale
	for r := 0; r < n; r++ {
		amount := caps[r] * 0.6
		if amount <= 0 {
			continue
		}
		plan, err := c.al.Plan(c.g.V, r, amount)
		if err != nil {
			return fmt.Errorf("plan (requester %d): %w", r, err)
		}
		pplan, err := pal.Plan(pg.V, perm[r], amount)
		if err != nil {
			return fmt.Errorf("permuted plan (requester %d): %w", perm[r], err)
		}
		if math.Abs(plan.Theta-pplan.Theta) > tieTol {
			return fmt.Errorf("requester %d: θ = %g but permuted θ = %g (identity must not matter)",
				r, plan.Theta, pplan.Theta)
		}
	}
	return nil
}

// permuteGraph relabels principals: new index perm[i] carries old i's row,
// column and availability.
func permuteGraph(g *Graph, perm []int) *Graph {
	out := &Graph{N: g.N, Level: g.Level, Overdraft: g.Overdraft, Shape: g.Shape}
	out.S = zeroMatrix(g.N)
	if g.A != nil {
		out.A = zeroMatrix(g.N)
	}
	out.V = make([]float64, g.N)
	for i := 0; i < g.N; i++ {
		out.V[perm[i]] = g.V[i]
		for j := 0; j < g.N; j++ {
			out.S[perm[i]][perm[j]] = g.S[i][j]
			if g.A != nil {
				out.A[perm[i]][perm[j]] = g.A[i][j]
			}
		}
	}
	return out
}

// Options configures a Run campaign.
type Options struct {
	// Seed is the base seed; case i uses seed Seed+i, and a reported
	// failure's Seed replays with Iters = 1.
	Seed int64
	// Iters is how many generated graphs to check.
	Iters int
	// Mutation injects a deliberate bug (mutation smoke tests only).
	Mutation Mutation
	// NoShrink skips minimization of failing graphs.
	NoShrink bool
}

// Report summarizes a campaign.
type Report struct {
	// Cases is how many graphs were checked (including a failing one).
	Cases int
	// Failure is the first property violation, nil when all passed.
	Failure *Failure
}

// Run generates and checks Iters graphs. It stops at the first failure,
// shrinks it to a minimal failing graph, and returns it with its replay
// seed; the same Options always reproduce the same outcome.
func Run(opts Options) *Report {
	for i := 0; i < opts.Iters; i++ {
		caseSeed := opts.Seed + int64(i)
		g := Generate(rand.New(rand.NewSource(caseSeed)))
		f := CheckGraphMutated(g, opts.Mutation)
		if f == nil {
			continue
		}
		f.Seed = caseSeed
		if !opts.NoShrink {
			f.Shrunk = Shrink(g, func(cand *Graph) bool {
				sf := CheckGraphMutated(cand, opts.Mutation)
				return sf != nil && sf.Property == f.Property
			})
		}
		return &Report{Cases: i + 1, Failure: f}
	}
	return &Report{Cases: opts.Iters}
}
