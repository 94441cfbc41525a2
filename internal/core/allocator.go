package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"

	"repro/internal/agreement"
	"repro/internal/lp"
	"repro/internal/transitive"

	"repro/internal/num"
)

// ErrInsufficient is wrapped by Plan when the requester's capacity C_A is
// smaller than the requested amount.
var ErrInsufficient = errors.New("core: insufficient capacity for request")

// shortfall is the ErrInsufficient a plan returns, formatted only when read
// (a GRM that borrows the rest from its parent never reads it).
type shortfall struct {
	principal        int
	capacity, amount float64
}

func (e *shortfall) Unwrap() error { return ErrInsufficient }
func (e *shortfall) Error() string {
	return fmt.Sprintf("%v: principal %d has capacity %g, requested %g", ErrInsufficient, e.principal, e.capacity, e.amount)
}

// ErrInfeasible is wrapped by Plan when the LP solution cannot be repaired
// into an exact allocation: round-off cleanup left a residual with every
// contributing source already at its agreement cap, so delivering the
// requested amount would violate an agreement.
var ErrInfeasible = errors.New("core: allocation infeasible within agreement caps")

// Allocation is the outcome of planning one request in dense form: two
// vectors over the whole population. It is what Plan and PlanBatch export
// for the simulator, package planners, the oracles and the benchmark; the
// GRM serves requests from PlanPairs, which emits the same plan as the
// (source, take) pairs it stores and never builds these vectors.
type Allocation struct {
	// Take[i] is the amount drawn from principal i's resources
	// (V_i − V'_i ≥ 0); it sums to the requested amount.
	Take []float64
	// NewV[i] is the post-allocation availability V'_i.
	NewV []float64
	// Theta is the realized max capacity perturbation across the
	// non-requesting principals (the LP objective; recomputed exactly for
	// baseline planners too).
	Theta float64
}

// Config tunes the LP allocator.
type Config struct {
	// Level is the transitivity level m: 1 enforces only direct
	// agreements, n−1 (or 0, meaning "full") the complete closure.
	Level int
	// Approx is refused by NewAllocator: a compile shim for the layer
	// benchmark, which passes it and never sets it (DESIGN.md §5).
	Approx bool
	// ComponentLP restricts each plan's LP to the requester's agreement
	// component: only the V'_i a plan can actually move — the requester
	// and its sparse source column — become LP variables, and only the
	// perturb rows one of those sources feeds stay in the model. Every
	// other V'_k is pinned to v_k by its bounds in the full formulation
	// (its U toward the requester is exactly zero), so its terms fold into
	// the right-hand sides as the plan builds its LP: the feasible set and
	// the optimum value are unchanged, but the tableau shrinks from O(n²)
	// cells to the agreement neighborhood. The pivot sequence
	// differs from the full model's, so on degenerate ties the realized
	// take vector may be a different (equally optimal) vertex — off by
	// default. The bench's tree_sharded workload and the modeltest tree
	// turn it on to make allocation cost scale with agreement density
	// instead of population; no grmd flag does.
	ComponentLP bool
}

// fullLevel is the Level sentinel requesting full transitivity: any
// value >= n-1 is clamped per current matrix size, so a closure built
// with fullLevel keeps meaning "the complete closure" as it grows.
const fullLevel = 1 << 30

// exactBudget caps the steps an exact closure may charge: one per chain
// a row enumerates, one per edge read where a row is summed by the
// subset DP (transitive.exactRow picks per row). Exact closure is
// exponential on dense graphs either way; refuse plainly instead of
// hanging (a dense 20-principal graph has ~10^17 cycle-free chains). The
// build charges the budget as it works and stops when it runs out, so a
// refusal costs at most the budget (~0.02–0.05 s for K16, 1–4 s for K20
// on two busy cores). It admits complete graphs of up to 15 principals
// at full closure — the paper's K10 charges 0.25 M steps and builds in
// ~0.2–0.4 ms, K12 1.8 M and ~0.8–1.5 ms, K14 11 M and ~6–8 ms, K15 28 M —
// and refuses K16 (67 M) and anything denser or larger; sparse graphs
// are charged their chains. It meters the closure's delta path too,
// refusing a mutation as a build would.
const exactBudget = 50_000_000

// Allocator enforces sharing agreements by linear programming. It owns
// every row and column it holds, and only PatchShare, PatchAgreement and
// Grow change it, in place, for its one owner (mutate.go); between writes
// it is safe for concurrent use: a plan reads it and writes only into a
// workspace of its own, taken off a channel.
type Allocator struct {
	n int
	// Every table is a transitive.Table, rows as offsets into owned arenas,
	// a read of one valid until the next write. a holds the absolute
	// agreement matrix A's rows; hasA records whether an A was supplied at
	// all — an explicitly passed all-zero matrix still counts, preserving
	// the historical `a != nil` behavior. The relative matrix S lives in
	// clo; neither dense n×n array is materialized.
	a    transitive.Table
	hasA bool
	// k holds row i of K = min(T, 1), aligned with T's row, where an entry
	// of T's exceeds 1; an empty row of k reads T's (FlowRow). conn[i] is
	// row i of K summed off the diagonal: how much of i's capacity others
	// can reach, the weight of i's tie-break.
	k    transitive.Table
	conn []float64
	cfg  Config
	// cols holds column i of K∪A as row i, what capacity sums walk: its
	// sources, then their K and their A values at one offset (column).
	cols transitive.Table
	// clo is the transitive closure, which a mutation patches by rows.
	clo *transitive.Closure
	// free holds idle plan workspaces: nothing in one is sized by the
	// population but the full formulation's LP, and the simplex scratch is
	// the largest thing a plan allocates. It holds at most GOMAXPROCS of
	// them — as many as can plan at once — and, unlike a sync.Pool, keeps
	// them across collections, so a plan after an idle spell reuses its
	// model and tableau instead of regrowing them.
	free chan *planWS
}

// column lists the sources k ≠ i with a nonzero flow into principal i
// (K_ki ≠ 0 or A_ki ≠ 0), ascending, with their K_ki and A_ki: what a
// capacity sum reads, bit-identical to the dense scan, whose other terms are
// exactly zero. It is a view of row i of Allocator.cols, built on the stack
// (column) and valid until the next write.
type column struct {
	idx  []int32
	k, a []float64
}

// column returns column i of K∪A.
func (al *Allocator) column(i int) column {
	idx, v := al.cols.Row(i)
	n := len(idx)
	return column{idx: idx, k: v[:n:n], a: v[n:]}
}

// compRow locates one kept perturb row of a plan's LP. self is i's variable
// position and src[x] that of source cols[i].idx[x], -1 for the pinned: the
// column itself where everyone is live, else a view of the workspace's
// position arena.
type compRow struct {
	row  int
	i    int32
	self int32
	src  []int32
}

// capFlowRef locates one cap_flow_k_i row.
type capFlowRef struct {
	row  int
	k, i int32
}

// planWS is the per-Plan scratch kept on Allocator.free, across plans and
// collections alike. plan lays one request's LP out in it and leaves the
// result there, indexed by variable position — entry x belongs to principal
// vars[x] — so a plan costs its component; the two emitters (appendPairs,
// scatter) read it from there. Nothing survives from one plan to the next
// but capacity: every slice, the model and the LP solver workspace, whose
// tableau grows once to the largest LP it solves. Nothing in it is sized by
// the population but the full formulation's LP, whose vars are everyone.
type planWS struct {
	// vars lists the plan's live principals in ascending order — variable x
	// of the model is V'_vars[x], then theta: everyone in the full
	// formulation, the requester's agreement component under cfg.ComponentLP
	// (the rest fold into the right-hand sides); empty for a zero-amount
	// plan. req is the requester's position in it; rows lists the perturb
	// rows the model keeps, ascending by principal and by model row, and
	// capFlowRows the cap_flow_k_i rows in the order build emits them: the
	// j-th one's auxiliary variable u_k_i is model variable len(vars)+1+j and
	// its cap_own_k_i row the next row.
	vars        []int32
	req         int
	rows        []compRow
	capFlowRows []capFlowRef
	uCol        []float64 // U_{vars[x]→requester} (v for the requester itself)
	take        []float64 // V_i − V'_i
	newV        []float64 // V'_i
	theta       float64   // realized max perturbation over the kept rows
	caps        []float64 // C_i before the allocation, one per kept perturb row
	kept        []int32   // build's scratch: the principals whose row stays
	pos         []int32   // the arena compRow.src views under ComponentLP
	terms       []lp.Term // build's scratch: the row being added
	model       lp.Model
	lpws        lp.Workspace
}

// newPlanWS returns an empty workspace whose model names its variables and
// rows on demand from the plan it holds.
func newPlanWS() *planWS {
	ws := new(planWS)
	ws.model.NameWith(ws.varName, ws.rowName)
	return ws
}

// NewAllocator builds an allocator from the CSR relative agreement matrix
// S and an optional absolute agreement matrix A (nil for none), the
// agreement.SparseMatrices form; callers holding dense matrices import them
// with agreement.SparseOf. The transitive flow coefficients are computed
// once here — they depend only on S and the level, not on the fluctuating
// capacities. The closure copies S's rows and A's are copied here, so no
// write reaches s or a, and no dense n×n array is materialized. S needs a
// zero diagonal, S and A non-negative entries, and an exact closure within
// the enumeration budget; Approx set is refused. Each table is written in
// one counted pass into arenas allocated once.
func NewAllocator(s *agreement.SparseMatrix, a *agreement.SparseMatrix, cfg Config) (*Allocator, error) {
	if cfg.Approx {
		return nil, errors.New("core: Config.Approx is refused: walk sums overcount cycles and grant past the agreements; lower Config.Level (grmd -level) to bound the exact closure")
	}
	n := s.N()
	for i := 0; i < n; i++ {
		cols, vals := s.Row(i)
		for k, j := range cols {
			if int(j) == i {
				return nil, fmt.Errorf("core: S[%d][%d] = %g, diagonal must be zero", i, i, vals[k])
			}
			if vals[k] < 0 {
				return nil, fmt.Errorf("core: S[%d][%d] = %g, entries must be non-negative", i, j, vals[k])
			}
		}
	}
	rowA := func(int) ([]int32, []float64) { return nil, nil }
	if a != nil {
		if a.N() != n {
			return nil, fmt.Errorf("core: A is %d×%d, S is %d×%d", a.N(), a.N(), n, n)
		}
		for i := 0; i < n; i++ {
			rc, rv := a.Row(i)
			for k, j := range rc {
				if rv[k] < 0 {
					return nil, fmt.Errorf("core: A[%d][%d] = %g, must be non-negative", i, j, rv[k])
				}
			}
		}
		rowA = a.Row
	}
	clo, err := transitive.NewClosureBudget(s, effectiveLevel(cfg), exactBudget)
	if err != nil {
		return nil, fmt.Errorf("core: exact transitive closure would exceed %d steps for this agreement graph; lower Config.Level (grmd -level): %w", exactBudget, err)
	}
	al := &Allocator{n: n, a: transitive.TableOf(n, 1, rowA), hasA: a != nil, cfg: cfg, clo: clo,
		free: make(chan *planWS, runtime.GOMAXPROCS(0))}
	al.index()
	return al, nil
}

// NewAllocatorSparse is NewAllocator, under the name the layer benchmark
// still calls.
func NewAllocatorSparse(s, a *agreement.SparseMatrix, cfg Config) (*Allocator, error) {
	return NewAllocator(s, a, cfg)
}

// effectiveLevel resolves Config.Level: non-positive requests the
// complete closure via the fullLevel sentinel (clamping is redone per
// current n as the allocator grows).
func effectiveLevel(cfg Config) int {
	if cfg.Level <= 0 {
		return fullLevel
	}
	return cfg.Level
}

// index builds what the allocator derives from its closure and A — the K
// rows the cap bites, every row's conn and the columns — each table in one
// counted pass over the stored entries of T and A.
func (al *Allocator) index() {
	al.k = transitive.Layout(al.n, 1, func(i int) int {
		if _, tv := al.clo.FlowRow(i); capped(tv) {
			return len(tv)
		}
		return 0
	})
	al.conn = make([]float64, al.n)
	for i := range al.conn {
		cols, tv := al.clo.FlowRow(i)
		if kc, kv := al.k.Row(i); len(kc) > 0 {
			copy(kc, cols)
			capInto(kv, tv)
		}
		al.conn[i] = connOf(i, cols, al.flowK(i, tv))
	}
	al.transposeColumns()
}

// capped reports whether the overdraft rule K = min(T, 1) bites in a row of
// T: whether some entry exceeds 1.
func capped(tv []float64) bool {
	for _, v := range tv {
		if v > 1 {
			return true
		}
	}
	return false
}

// capInto writes min(T, 1) of the row tv into k, which has room for it.
func capInto(k, tv []float64) {
	for x, v := range tv {
		k[x] = min(v, 1)
	}
}

// connOf sums row i of K off the diagonal, ascending — the dense row sum
// minus its exact zeros.
func connOf(i int, cols []int32, kv []float64) float64 {
	var conn float64
	for x, j := range cols {
		if int(j) != i {
			conn += kv[x]
		}
	}
	return conn
}

// flowK returns row i of K given T's values tv there: k's row where the
// cap bites, else tv itself.
func (al *Allocator) flowK(i int, tv []float64) []float64 {
	if _, kv := al.k.Row(i); len(kv) > 0 {
		return kv
	}
	return tv
}

// FlowRow returns row i of the flow coefficients as stored: the ascending
// columns with a nonzero coefficient, the transitive coefficients T there,
// and the capped ones K = min(T, 1) — the same slice as t unless some
// entry exceeds 1. All three are windows into the allocator's tables,
// read-only and valid until the next write.
func (al *Allocator) FlowRow(i int) (cols []int32, t, k []float64) {
	cols, t = al.clo.FlowRow(i)
	return cols, t, al.flowK(i, t)
}

// kAt returns K[k][i] — a binary search over row k's columns, 0 when
// unstored.
func (al *Allocator) kAt(k, i int) float64 {
	cols, _, kv := al.FlowRow(k)
	return transitive.At(cols, kv, i)
}

// aAt returns A[k][i] — a binary search over row k's sparse columns, 0
// when unstored.
func (al *Allocator) aAt(k, i int) float64 {
	cols, vals := al.a.Row(k)
	return transitive.At(cols, vals, i)
}

// mergeCols walks two ascending column lists together, calling fn once
// per distinct column with its position in each list (-1 where absent).
func mergeCols(a, b []int32, fn func(c int32, x, y int)) {
	x, y := 0, 0
	for x < len(a) || y < len(b) {
		switch {
		case y == len(b) || (x < len(a) && a[x] < b[y]):
			fn(a[x], x, -1)
			x++
		case x == len(a) || b[y] < a[x]:
			fn(b[y], -1, y)
			y++
		default:
			fn(a[x], x, y)
			x, y = x+1, y+1
		}
	}
}

// eachInflow walks row kk of K∪A in ascending column order, calling fn
// with every off-diagonal column either stores and the two values (0
// where only the other holds it). Stored entries are never exactly zero,
// so these are the (kk → c) pairs with a nonzero flow.
func (al *Allocator) eachInflow(kk int, fn func(c int32, kv, av float64)) {
	kc, _, kv := al.FlowRow(kk)
	ac, av := al.a.Row(kk)
	mergeCols(kc, ac, func(c int32, x, y int) {
		var k, a float64
		if x >= 0 {
			k = kv[x]
		}
		if y >= 0 {
			a = av[y]
		}
		if int(c) != kk {
			fn(c, k, a)
		}
	})
}

// transposeColumns builds every column with one counting transpose of K∪A:
// count each column's sources, lay the columns out back to back, then fill
// them walking the rows in ascending order, each column's count reset to
// serve as its cursor, so every column lists its sources ascending.
func (al *Allocator) transposeColumns() {
	n := al.n
	count := make([]int32, n)
	for kk := 0; kk < n; kk++ {
		al.eachInflow(kk, func(c int32, _, _ float64) { count[c]++ })
	}
	al.cols = transitive.Layout(n, 2, func(c int) int { return int(count[c]) })
	clear(count)
	for kk := 0; kk < n; kk++ {
		al.eachInflow(kk, func(c int32, kv, av float64) {
			al.cols.Put(int(c), int(count[c]), int32(kk), kv, av)
			count[c]++
		})
	}
}

// N returns the number of principals.
func (al *Allocator) N() int { return al.n }

// FlowCoefficients returns the capped transitive coefficients K in use
// (row i: the fraction of i's capacity reachable by each principal) as a
// fresh dense matrix — an export for tests, the sharing facade and the
// bench that costs n² floats per call; planning reads the sparse rows.
func (al *Allocator) FlowCoefficients() [][]float64 {
	out := make([][]float64, al.n)
	for i := range out {
		out[i] = make([]float64, al.n)
		cols, _, kv := al.FlowRow(i)
		for x, j := range cols {
			out[i][j] = kv[x]
		}
	}
	return out
}

// Bytes returns the memory the agreement-derived planner state holds: the
// closure's tables, the A, K and column tables, their arenas' dead slots
// included, and conn — not the plan workspaces on the free list.
func (al *Allocator) Bytes() int {
	return al.clo.Bytes() + al.a.Bytes() + al.k.Bytes() + al.cols.Bytes() + 8*cap(al.conn)
}

// Capacities returns C_i = V_i + Σ_k U_ki for the current availability.
func (al *Allocator) Capacities(v []float64) []float64 {
	al.checkV(v)
	out := make([]float64, al.n)
	for i := range out {
		out[i] = al.capacity(v, i)
	}
	return out
}

// Capacity returns C_i alone, bit-identical to Capacities(v)[i], walking
// column i only: what a caller that needs one number should pay.
func (al *Allocator) Capacity(v []float64, i int) float64 {
	al.checkLen(v)
	if i < 0 || i >= al.n {
		panic(fmt.Sprintf("core: principal %d out of range [0,%d)", i, al.n))
	}
	return al.capacity(v, i)
}

// capacity computes C_i = V_i + Σ_{k≠i} U_ki walking column i. Sources
// it skips have K_ki = 0 and A_ki = 0, so their U_ki is exactly zero and the
// sum is bit-identical to the dense scan (modeltest.Capacities). It panics
// on an invalid availability among the entries it reads: every entry of v a
// plan touches passes through here first, so a plan validates what it
// reads and nothing else.
func (al *Allocator) capacity(v []float64, i int) float64 {
	c := v[i]
	if !(c >= 0) {
		panic(invalidV(i, c))
	}
	col := al.column(i)
	for x, k := range col.idx {
		vk := v[k]
		if !(vk >= 0) {
			panic(invalidV(int(k), vk))
		}
		c += al.sourceCap(&col, x, vk)
	}
	return c
}

// sourceCap is U_ki = min(V_k·K_ki + A_ki, V_k) for column source x.
func (al *Allocator) sourceCap(col *column, x int, vk float64) float64 {
	u := vk * col.k[x]
	if al.hasA {
		u += col.a[x]
	}
	if u > vk {
		u = vk
	}
	return u
}

// capacityAfter is row pr's capacity at a plan's outcome: V'_k = newV[x]
// where principal k is the plan's live variable x, V_k everywhere else.
func (al *Allocator) capacityAfter(v []float64, pr compRow, newV []float64) float64 {
	c := v[pr.i]
	if pr.self >= 0 {
		c = newV[pr.self]
	}
	col := al.column(int(pr.i))
	for x, k := range col.idx {
		vk := v[k]
		if y := pr.src[x]; y >= 0 {
			vk = newV[y]
		}
		c += al.sourceCap(&col, x, vk)
	}
	return c
}

// Plan chooses the allocation minimizing the maximum capacity perturbation
// θ across the other principals (the paper's global metric), subject to
// the agreement-derived per-source caps. It returns ErrInsufficient
// (wrapped, with the shortfall) if C_requester < amount.
func (al *Allocator) Plan(v []float64, requester int, amount float64) (*Allocation, error) {
	al.checkV(v)
	al.checkRequester(requester)
	ws := al.getWS()
	defer al.putWS(ws)
	if err := al.plan(ws, v, requester, amount); err != nil {
		return nil, err
	}
	out := &Allocation{Take: make([]float64, al.n), NewV: make([]float64, al.n)}
	ws.scatter(out, v)
	return out, nil
}

// PlanPairs is Plan for a caller that keeps an allocation as its takes: it
// appends the plan's non-zero takes to sources and takes — takes[k] drawn
// from principal sources[k], ascending, exactly the non-zero entries of
// Plan's Take — and returns the grown slices with θ. Nothing outside the
// plan's LP is read or written on the way — under ComponentLP nothing of
// population size — and with capacity in the two slices a steady-state
// call allocates nothing. It validates the entries of v the plan reads, not
// the whole vector. On error the slices come back as given.
func (al *Allocator) PlanPairs(sources []int, takes []float64, v []float64, requester int, amount float64) ([]int, []float64, float64, error) {
	al.checkLen(v)
	al.checkRequester(requester)
	ws := al.getWS()
	defer al.putWS(ws)
	if err := al.plan(ws, v, requester, amount); err != nil {
		return sources, takes, 0, err
	}
	sources, takes = ws.appendPairs(sources, takes)
	return sources, takes, ws.theta, nil
}

// getWS takes an idle workspace off the free list, or makes one when every
// workspace is in use.
func (al *Allocator) getWS() *planWS {
	select {
	case ws := <-al.free:
		return ws
	default:
		return newPlanWS()
	}
}

// putWS returns ws to the free list, or drops it when the list is full.
func (al *Allocator) putWS(ws *planWS) {
	select {
	case al.free <- ws:
	default:
	}
}

// appendPairs is the pair emitter: the planned non-zero takes, ascending
// by source because vars is.
func (ws *planWS) appendPairs(sources []int, takes []float64) ([]int, []float64) {
	for x, i := range ws.vars {
		if t := ws.take[x]; !num.IsZero(t) {
			sources, takes = append(sources, int(i)), append(takes, t)
		}
	}
	return sources, takes
}

// scatter is the dense emitter: the plan written over the whole population
// into out, whose Take and NewV are freshly made vectors of n entries.
// Everyone outside vars keeps exactly v_i and the zero take out.Take
// already holds.
func (ws *planWS) scatter(out *Allocation, v []float64) {
	copy(out.NewV, v)
	for x, i := range ws.vars {
		out.Take[i], out.NewV[i] = ws.take[x], ws.newV[x]
	}
	out.Theta = ws.theta
}

// plan plans one request and leaves the result in ws — the one computation
// behind Plan, PlanBatch and PlanPairs. It reads v at the requester, the
// plan's variables and the sources of its rows, and nowhere else.
func (al *Allocator) plan(ws *planWS, v []float64, requester int, amount float64) error {
	ws.vars, ws.theta = ws.vars[:0], 0
	if amount < 0 {
		return fmt.Errorf("core: negative request %g", amount)
	}
	if c := al.capacity(v, requester); c < amount-1e-9 {
		return &shortfall{principal: requester, capacity: c, amount: amount}
	}
	if num.IsZero(amount) {
		return nil // the empty plan: no take, V' = V, θ = 0
	}
	al.build(ws, v, requester, amount)
	sol, err := ws.model.SolveWithWorkspace(lp.Tableau, &ws.lpws)
	if err != nil {
		return fmt.Errorf("core: allocation LP failed: %w", err)
	}
	ws.readNewV(sol)
	return al.finishPlan(ws, v, amount)
}

// sized returns buf with length n, reallocating only when it must grow;
// the contents are unspecified.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// build lays requester's substituted LP out in ws.model, every number
// included, in the variable and constraint order of the historical per-call
// construction, so its solves pivot identically, and fills what the finish
// reads: the requester's U column by variable position and C_i for every
// kept row. It is a counting walk over the kept rows' column lengths and one
// pass into the model reserved to that count: every buffer is the
// workspace's, reused from plan to plan, terms go through one scratch, and
// no name is formatted (varName and rowName give them on demand).
//
// Under cfg.ComponentLP only the requester and its source column are live
// variables. In the full formulation every other V'_k is pinned by its
// bounds (lo = v_k − U_k,req = v_k = up, because its U toward the requester
// is exactly zero), so those variables and every perturb row none of the
// live variables feeds are constants: folding them into the right-hand
// sides leaves the feasible set and the optimum value unchanged while the
// tableau shrinks to the agreement neighborhood. The full formulation is the
// same construction with every principal live and nothing to fold.
func (al *Allocator) build(ws *planWS, v []float64, requester int, amount float64) {
	comp, reqCol := al.cfg.ComponentLP, al.column(requester).idx
	// kept lists the principals whose perturb row survives, ascending: a
	// row stays only if a live variable appears in it — its own V' is
	// live, or a live source feeds it. Everything else is a constant
	// inequality any θ ≥ 0 already satisfies.
	var kept []int32
	if comp {
		// The requester merged into its ascending source column, then each
		// live variable's ascending K and A rows merged into the kept set.
		ws.req, _ = slices.BinarySearch(reqCol, int32(requester))
		ws.vars = append(append(append(ws.vars[:0], reqCol[:ws.req]...), int32(requester)), reqCol[ws.req:]...)
		kept = append(ws.kept[:0], ws.vars...)
		for _, k := range ws.vars {
			kc, _, kv := al.FlowRow(int(k))
			z := 0
			for x, j := range kc {
				if j != k && !num.IsZero(kv[x]) {
					kept, z = insertFrom(kept, z, j)
				}
			}
			z = 0
			ac, av := al.a.Row(int(k))
			for x, j := range ac {
				if j != k && av[x] > 0 {
					kept, z = insertFrom(kept, z, j)
				}
			}
		}
		ws.kept = kept
	} else {
		ws.vars, ws.req = sized(ws.vars, al.n), requester
		for i := range ws.vars {
			ws.vars[i] = int32(i)
		}
		kept = ws.vars
	}
	live, nRows, nAux, nSrc := len(ws.vars), 0, 0, 0
	for _, i := range kept {
		if int(i) == requester { // eq. 6 spares the requester: see the package comment
			continue
		}
		nRows++
		col := al.column(int(i))
		nSrc += len(col.idx)
		for _, a := range col.a {
			if al.hasA && a > 0 {
				nAux++ // an upper bound under ComponentLP: a pinned source gets no u
			}
		}
	}
	m := &ws.model
	m.Reset()
	m.Reserve(live+1+nAux, 1+nRows+2*nAux, live+2*nRows+nSrc+4*nAux)
	ws.rows, ws.capFlowRows = ws.rows[:0], ws.capFlowRows[:0]
	ws.take, ws.newV, ws.caps = sized(ws.take, live), sized(ws.newV, live), sized(ws.caps, nRows)
	al.uColumn(ws, v, requester)
	pos := ws.pos[:0]
	if comp {
		pos = slices.Grow(pos, nSrc)
	}
	terms := slices.Grow(ws.terms[:0], live+1) // no row is longer: a V' or u per live principal, and theta

	var sumLive float64
	for x, i := range ws.vars {
		lo := v[i] - ws.uCol[x]
		if lo < 0 {
			lo = 0
		}
		m.AddVar("", lo, v[i], al.tieBreak(i))
		terms = append(terms, lp.Term{Var: lp.VarID(x), Coeff: 1})
		sumLive += v[i]
	}
	theta := m.AddVar("", 0, lp.Inf, 1)
	// Σ_{live} V'_i = Σ_{live} V_i − amount (eq. 5 with the pinned
	// variables cancelled from both sides): row 0.
	m.AddConstraint("", terms, lp.EQ, sumLive-amount)

	// C'_i ≥ C_i − θ for the non-requesting principals (eq. 6), the pinned
	// terms folded into the right-hand side: C_i less V_i where i's own V'
	// is pinned, less each pinned source's flow.
	for _, i := range kept {
		if int(i) == requester {
			continue
		}
		col := al.column(int(i))
		pr := compRow{i: i, self: i, src: col.idx}
		if comp {
			end := len(pos) + len(col.idx)
			pr.self, pr.src, pos = ws.find(i), pos[len(pos):end:end], pos[:end]
			y := 0 // vars and the column are both ascending: one merge walk
			for x, k := range col.idx {
				for y < live && ws.vars[y] < k {
					y++
				}
				pr.src[x] = -1
				if y < live && ws.vars[y] == k {
					pr.src[x] = int32(y)
				}
			}
		}
		c := al.capacity(v, int(i))
		ws.caps[len(ws.rows)] = c
		terms = terms[:0]
		if pr.self >= 0 {
			terms = append(terms, lp.Term{Var: lp.VarID(pr.self), Coeff: 1})
		} else {
			c -= v[i]
		}
		terms = append(terms, lp.Term{Var: theta, Coeff: 1})
		// Walk the sparse column: it lists exactly the k ≠ i with K_ki ≠ 0
		// or A_ki ≠ 0, ascending — the same sources the dense k-loop would
		// admit, in the same order. When absolute agreements are present,
		// min(V'_k·K_ki + A_ki, V'_k) is linearized with auxiliary variables
		// u_ki (its superlevel set is convex).
		for x, at := range pr.src {
			vk, kv, hasAbs := lp.VarID(at), col.k[x], al.hasA && col.a[x] > 0
			switch {
			case at >= 0 && hasAbs:
				u := m.AddVar("", 0, lp.Inf, 0)
				capFlow := m.AddConstraint("", []lp.Term{{Var: u, Coeff: 1}, {Var: vk, Coeff: -kv}}, lp.LE, col.a[x])
				ws.capFlowRows = append(ws.capFlowRows, capFlowRef{row: capFlow, k: col.idx[x], i: i})
				m.AddConstraint("", []lp.Term{{Var: u, Coeff: 1}, {Var: vk, Coeff: -1}}, lp.LE, 0)
				terms = append(terms, lp.Term{Var: u, Coeff: 1})
			case at >= 0:
				if !num.IsZero(kv) {
					terms = append(terms, lp.Term{Var: vk, Coeff: kv})
				}
			case hasAbs:
				// The pinned flow takes its LP maximum min(v_k·K + A, v_k):
				// u_ki appears only positively in this ≥ row, so any optimum
				// admits it at its cap.
				c -= al.sourceCap(&col, x, v[col.idx[x]])
			case !num.IsZero(kv):
				c -= kv * v[col.idx[x]]
			}
		}
		pr.row = m.AddConstraint("", terms, lp.GE, c)
		ws.rows = append(ws.rows, pr)
	}
	ws.pos, ws.terms = pos, terms
}

// insertFrom adds j to the ascending, duplicate-free s unless s holds it,
// looking from position z on, and returns s with the position past j: a
// caller adding an ascending run passes it back, so the run costs one walk
// of s.
func insertFrom(s []int32, z int, j int32) ([]int32, int) {
	for z < len(s) && s[z] < j {
		z++
	}
	if z == len(s) || s[z] != j {
		s = slices.Insert(s, z, j)
	}
	return s, z + 1
}

// uColumn fills ws.uCol with the requester's U column by variable position:
// it bounds V'_i from below in the LP and caps each source's take during
// normalization. Live principals outside the requester's column have
// K = A = 0, so their U is exactly 0 — zero-filling and walking the sparse
// column matches the dense scan.
func (al *Allocator) uColumn(ws *planWS, v []float64, requester int) {
	ws.uCol = sized(ws.uCol, len(ws.vars))
	clear(ws.uCol)
	col := al.column(requester)
	y := 0
	for x, k := range col.idx {
		for ws.vars[y] != k {
			y++ // vars holds the whole column, both ascending
		}
		ws.uCol[y] = al.sourceCap(&col, x, v[k])
	}
	ws.uCol[ws.req] = v[requester]
}

// find returns principal i's position in the ascending vars, -1 when pinned.
func (ws *planWS) find(i int32) int32 {
	if x, ok := slices.BinarySearch(ws.vars, i); ok {
		return int32(x)
	}
	return -1
}

// varName names model variable v on demand: the V'_i in vars' order, theta,
// then one u_k_i per capFlowRows entry.
func (ws *planWS) varName(v lp.VarID) string {
	switch x := int(v) - len(ws.vars); {
	case x < 0:
		return fmt.Sprintf("V'_%d", ws.vars[v])
	case x == 0:
		return "theta"
	default:
		return fmt.Sprintf("u_%d_%d", ws.capFlowRows[x-1].k, ws.capFlowRows[x-1].i)
	}
}

// rowName names model row r on demand: row 0 consumes, perturb rows and
// cap_flow rows are both ascending by row, and a cap_own row follows its
// cap_flow row.
func (ws *planWS) rowName(r int) string {
	if r == 0 {
		return "consume"
	}
	if x, ok := slices.BinarySearchFunc(ws.rows, r, func(pr compRow, r int) int { return pr.row - r }); ok {
		return fmt.Sprintf("perturb_%d", ws.rows[x].i)
	}
	x, _ := slices.BinarySearchFunc(ws.capFlowRows, r-1, func(cf capFlowRef, r int) int { return cf.row - r })
	cf := ws.capFlowRows[x]
	if cf.row == r {
		return fmt.Sprintf("cap_flow_%d_%d", cf.k, cf.i)
	}
	return fmt.Sprintf("cap_own_%d_%d", cf.k, cf.i)
}

// tieBreak is V'_i's objective coefficient, −ε·conn_i: drawing from weakly
// connected sources, whose capacity matters least to everyone else, wins.
func (al *Allocator) tieBreak(i int32) float64 {
	const eps = 1e-6
	return -eps * al.conn[i]
}

// readNewV copies V'_x for every live variable out of a solution; variable
// x of the model is V'_vars[x].
func (ws *planWS) readNewV(sol *lp.Solution) {
	for x := range ws.newV {
		ws.newV[x] = sol.Value(lp.VarID(x))
	}
}

// finishPlan turns the LP's V' (in ws.newV) into the plan's result:
// clamped into [0, V_i], round-off cleaned so the takes sum to amount
// exactly, and θ recomputed from first principles — max over i ≠ requester
// of C_i − C'_i, including the exact min-caps the LP linearized. Only the
// LP's rows are looked at (the requester has none): a principal
// outside them has every source pinned at V_k, its C'_i is the same sum over
// the same numbers as C_i, and its difference is exactly 0, which the
// maximum already starts from.
func (al *Allocator) finishPlan(ws *planWS, v []float64, amount float64) error {
	for x, i := range ws.vars {
		nv := ws.newV[x]
		if nv < 0 {
			nv = 0
		}
		if nv > v[i] {
			nv = v[i]
		}
		ws.newV[x] = nv
		ws.take[x] = v[i] - nv
	}
	if resid := normalizeTakes(ws.take, ws.newV, ws.vars, v, amount, ws.uCol, al.n); math.Abs(resid) > 1e-9*math.Max(1, amount) {
		// Every source with a take is pinned at its agreement cap and the
		// solution still misses the request: the plan cannot be repaired
		// within the agreements. Surface it instead of returning an
		// allocation that silently under- or over-delivers.
		return fmt.Errorf("core: repaired allocation off by %g of %g requested with every source at its cap: %w",
			resid, amount, ErrInfeasible)
	}
	worst := 0.0
	for r, pr := range ws.rows {
		if d := ws.caps[r] - al.capacityAfter(v, pr, ws.newV); d > worst {
			worst = d
		}
	}
	ws.theta = worst
	return nil
}

// normalizeTakes removes round-off so that Σtake == amount exactly: tiny
// negative takes are zeroed and the residual is absorbed by the largest
// takes — never beyond a source's agreement cap maxTake[x] (U_{i→A}), so
// round-off repair cannot manufacture an allocation the agreements forbid.
// take, newV and maxTake are indexed by variable position, entry x
// belonging to principal vars[x] of v; rounds bounds the repair steps
// (callers pass the population, so the bound is the same whichever
// formulation chose the variables). It returns the residual the
// capped sources could not absorb (possible only when every source with a
// take is at its cap); callers must treat a non-negligible residual as an
// infeasible plan, not ship a short one.
func normalizeTakes(take, newV []float64, vars []int32, v []float64, amount float64, maxTake []float64, rounds int) float64 {
	var sum float64
	for x := range take {
		if take[x] < 1e-12 {
			take[x] = 0
			newV[x] = v[vars[x]]
		}
		sum += take[x]
	}
	resid := amount - sum
	for iter := 0; !num.IsZero(resid) && iter < rounds; iter++ {
		// Pick the source with the largest take that still has headroom
		// in the needed direction.
		best := -1
		for x := range take {
			if resid > 0 {
				if take[x] >= maxTake[x] {
					continue
				}
			} else if take[x] <= 0 {
				continue
			}
			if best == -1 || take[x] > take[best] {
				best = x
			}
		}
		if best == -1 {
			break
		}
		delta := resid
		if resid > 0 {
			if room := maxTake[best] - take[best]; delta > room {
				delta = room
			}
		} else if -delta > take[best] {
			delta = -take[best]
		}
		take[best] += delta
		newV[best] = v[vars[best]] - take[best]
		resid -= delta
	}
	return resid
}

// checkV panics unless v is a valid availability vector for this
// allocator: the whole-vector check of the dense exports.
func (al *Allocator) checkV(v []float64) {
	al.checkLen(v)
	for i, x := range v {
		if !(x >= 0) {
			panic(invalidV(i, x))
		}
	}
}

func (al *Allocator) checkLen(v []float64) {
	if len(v) != al.n {
		panic(fmt.Sprintf("core: got %d capacities for %d principals", len(v), al.n))
	}
}

func (al *Allocator) checkRequester(requester int) {
	if requester < 0 || requester >= al.n {
		panic(fmt.Sprintf("core: requester %d out of range [0,%d)", requester, al.n))
	}
}

// invalidV is the panic message for a negative or NaN availability.
func invalidV(i int, x float64) string {
	return fmt.Sprintf("core: capacity V[%d] = %g invalid", i, x)
}
