package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/agreement"
	"repro/internal/lp"
	"repro/internal/transitive"

	"repro/internal/num"
)

// ErrInsufficient is wrapped by Plan when the requester's capacity C_A is
// smaller than the requested amount.
var ErrInsufficient = errors.New("core: insufficient capacity for request")

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
	// Approx switches the flow coefficients to the matrix-power
	// approximation (walks instead of simple paths). Default exact.
	Approx bool
	// ComponentLP restricts each plan skeleton to the requester's
	// agreement component: only the V'_i a plan can actually move — the
	// requester and its sparse source column — become LP variables, and
	// only the perturb rows one of those sources feeds stay in the model.
	// Every other V'_k is pinned to v_k by its bounds in the full
	// formulation (its U toward the requester is exactly zero), so its
	// terms fold into the right-hand sides at solve time: the feasible
	// set and the optimum value are unchanged, but the tableau shrinks
	// from O(n²) cells to the agreement neighborhood. The pivot sequence
	// differs from the full model's, so on degenerate ties the realized
	// take vector may be a different (equally optimal) vertex — off by
	// default. The bench's tree_sharded workload, cmd/loadgen's sharded
	// suite and the modeltest tree turn it on to make allocation cost scale
	// with agreement density instead of population; no grmd flag does.
	ComponentLP bool
}

// fullLevel is the Level sentinel requesting full transitivity: any
// value >= n-1 is clamped per current matrix size, so a closure built
// with fullLevel keeps meaning "the complete closure" as it grows.
const fullLevel = 1 << 30

// exactBudget caps the steps an exact closure may charge: one per chain
// a row enumerates, one per cell update where a row is summed by the
// subset DP (transitive.exactRow picks per row). Exact closure is
// exponential on dense graphs either way; refuse plainly instead of
// hanging (a dense 20-principal graph has ~10^17 cycle-free chains). The
// build charges the budget as it works and stops when it runs out, so a
// refusal costs at most the budget (~0.1 s for K16, ~0.7 s for K20). It
// admits complete graphs of up to 15 principals at full closure — the
// paper's K10 charges 0.25 M steps and builds in ~0.4 ms, K12 1.8 M and
// ~4 ms, K14 11 M and ~24 ms, K15 28 M — and refuses K16 (67 M) and
// anything denser or larger; sparse graphs are charged their chains. The
// same budget meters the incremental UpdateEdge path via the closure
// handle, so a mutation that densifies the graph past the budget is
// refused exactly like a from-scratch build would be.
const exactBudget = 50_000_000

// Allocator enforces sharing agreements by linear programming. Its
// agreement state is immutable after construction and it is safe for
// concurrent use: the lazily built LP skeletons and the pooled plan
// workspaces are internally synchronized.
type Allocator struct {
	n int
	// aCols/aVals hold the absolute agreement matrix A in row-sparse form
	// (ascending columns, values aligned); hasA records whether an A was
	// supplied at all — an explicitly passed all-zero matrix still counts,
	// preserving the historical `a != nil` behavior. The relative matrix S
	// lives inside clo's CSR rows; neither dense n×n array is materialized.
	aCols [][]int32
	aVals [][]float64
	hasA  bool
	// k[i] holds row i of the capped flow coefficients K = min(T, 1),
	// aligned with the closure's FlowRow(i) columns: K has T's sparsity
	// pattern, so the columns are never stored twice, and a row the cap
	// does not bite (no T entry above 1) is the closure's own value slice.
	k   [][]float64
	cfg Config
	// conn[i] is a connectivity weight used for deterministic
	// tie-breaking: how much of i's capacity other principals can reach.
	conn []float64
	// colIdx[i] lists the sources k≠i with a nonzero flow into i
	// (K_ki ≠ 0 or A_ki ≠ 0), in ascending order. Capacity sums walk
	// this index instead of scanning the dense column; the skipped terms
	// are exactly zero, so the result is bit-identical. colK/colA carry
	// the matching K_ki and A_ki values so the hot path never needs a
	// random access. A build lays all columns out in three arenas (one
	// counting transpose of K∪A); a mutator lays the columns it replaces
	// out of three arenas of its own.
	colIdx [][]int32
	colK   [][]float64
	colA   [][]float64
	// skel[r] caches the LP skeleton for requester r: the constraint
	// coefficients depend only on K and the sparsity pattern of A, so per
	// Plan call only the variable bounds and right-hand sides are rebound.
	// Slots stay nil until a requester first plans, so invalidating every
	// skeleton is one fresh slice.
	skel []atomic.Pointer[planSkeleton]
	// clo maintains the transitive closure incrementally; SetShare derives
	// allocators through its delta path instead of re-enumerating chains.
	clo *transitive.Closure
	// pool recycles plan workspaces (*planWS). Derived allocators share
	// it, grown ones included — nothing in a workspace is sized by the
	// population: the simplex scratch is the largest thing a plan allocates,
	// and churn would otherwise strand one per mutation.
	pool *sync.Pool
}

// planSkeleton is the reusable part of requester r's substituted LP:
// the model structure plus the rows whose right-hand sides change per
// solve. Built once per requester on first use, and sized by its variables:
// a ComponentLP skeleton costs its component wherever in a population it is.
type planSkeleton struct {
	once       sync.Once
	model      *lp.Model
	consumeRow int
	// capFlowRows lists the cap_flow_k_i rows whose right-hand side is
	// A[k][i]: rebound per solve so the skeleton depends only on A's
	// sparsity pattern, never its values — SetAgreement value changes
	// share every skeleton. The j-th one's auxiliary variable u_k_i is
	// model variable len(vars)+1+j and its cap_own_k_i row the next row.
	capFlowRows []capFlowRef
	// vars lists the live principals in ascending order — variable x of
	// the model is V'_vars[x], then theta: everyone in the full
	// formulation, the requester's agreement component under
	// cfg.ComponentLP (the rest fold into the right-hand sides). req is the
	// requester's position in it; rows lists the perturb rows the model
	// keeps, ascending by principal and by model row.
	vars []int32
	req  int
	rows []compRow
}

// compRow locates one kept perturb row of a skeleton. self is i's variable
// position and src[x] that of source colIdx[i][x], -1 for the pinned: the
// column itself where everyone is live, else a view of one position arena.
type compRow struct {
	row  int
	i    int32
	self int32
	src  []int32
}

// capFlowRef locates one cap_flow_k_i row for per-solve RHS rebinding.
type capFlowRef struct {
	row  int
	k, i int32
}

// planWS is the per-Plan scratch recycled through Allocator.pool. plan
// leaves one request's result in it, indexed by variable position — entry x
// belongs to principal vars[x] — so a plan costs its component; the two
// emitters (appendPairs, scatter) read it from there. Beside the result it
// keeps the rebindable model clones of the requesters it has planned for
// (each with the skeleton it came from: an allocator down the lineage that
// rebuilt the skeleton re-clones) and the LP solver workspace. Nothing in
// it is sized by the population; the full formulation's vectors are,
// because its vars are everyone.
type planWS struct {
	vars   []int32   // the planned skeleton's live principals; empty for a zero-amount plan
	uCol   []float64 // U_{vars[x]→requester} (v for the requester itself)
	take   []float64 // V_i − V'_i
	newV   []float64 // V'_i
	theta  float64   // realized max perturbation over the skeleton's rows
	caps   []float64 // C_i before the allocation, one per kept perturb row
	clones map[int]modelClone
	lpws   lp.Workspace
}

// modelClone is a workspace's private, rebindable copy of a skeleton's
// model.
type modelClone struct {
	model *lp.Model
	of    *planSkeleton
}

// NewAllocator builds an allocator from a relative agreement matrix S and
// an optional absolute agreement matrix A (nil for none). The transitive
// flow coefficients are computed once here — they depend only on S and the
// level, not on the fluctuating capacities. It is an adapter: the dense
// inputs are converted to row-sparse form and built like
// NewAllocatorSparse's, which skips the dense detour entirely.
func NewAllocator(s [][]float64, a [][]float64, cfg Config) (*Allocator, error) {
	if err := transitive.Validate(s); err != nil {
		return nil, err
	}
	n := len(s)
	sCols, sVals := make([][]int32, n), make([][]float64, n)
	for i, row := range s {
		sCols[i], sVals[i] = transitive.RowOf(row)
	}
	aCols, aVals := make([][]int32, n), make([][]float64, n)
	if a != nil {
		if len(a) != n {
			return nil, fmt.Errorf("core: A is %d×?, S is %d×%d", len(a), n, n)
		}
		for i, row := range a {
			if len(row) != n {
				return nil, fmt.Errorf("core: A row %d has %d entries, want %d", i, len(row), n)
			}
			aCols[i], aVals[i] = transitive.RowOf(row)
		}
	}
	return newAllocatorRows(n, sCols, sVals, aCols, aVals, a != nil, cfg)
}

// NewAllocatorSparse builds an allocator straight from CSR agreement
// matrices (the agreement.SparseMatrices form) without materializing any
// dense n×n array: S's rows seed the incremental closure directly and A
// is stored row-sparse. a may be nil. The result is bit-identical to
// NewAllocator over the dense exports — the sparse kernels read the same
// floats in the same order.
func NewAllocatorSparse(s *agreement.SparseMatrix, a *agreement.SparseMatrix, cfg Config) (*Allocator, error) {
	n := s.N()
	sCols, sVals := make([][]int32, n), make([][]float64, n)
	for i := 0; i < n; i++ {
		sCols[i], sVals[i] = s.Row(i)
	}
	aCols, aVals := make([][]int32, n), make([][]float64, n)
	if a != nil {
		if a.N() != n {
			return nil, fmt.Errorf("core: A is %d×%d, S is %d×%d", a.N(), a.N(), n, n)
		}
		for i := 0; i < n; i++ {
			aCols[i], aVals[i] = a.Row(i)
		}
	}
	return newAllocatorRows(n, sCols, sVals, aCols, aVals, a != nil, cfg)
}

// newAllocatorRows validates row-sparse S and A, refuses an exact closure
// past the enumeration budget, and builds the allocator.
func newAllocatorRows(n int, sCols [][]int32, sVals [][]float64, aCols [][]int32, aVals [][]float64, hasA bool, cfg Config) (*Allocator, error) {
	for i := 0; i < n; i++ {
		for k, j := range sCols[i] {
			if int(j) == i {
				return nil, fmt.Errorf("core: S[%d][%d] = %g, diagonal must be zero", i, i, sVals[i][k])
			}
			if sVals[i][k] < 0 {
				return nil, fmt.Errorf("core: S[%d][%d] = %g, entries must be non-negative", i, j, sVals[i][k])
			}
		}
		for k, j := range aCols[i] {
			if aVals[i][k] < 0 {
				return nil, fmt.Errorf("core: A[%d][%d] = %g, must be non-negative", i, j, aVals[i][k])
			}
		}
	}
	level := effectiveLevel(cfg)
	clo, err := transitive.NewClosureBudget(n, sCols, sVals, level, cfg.Approx, exactBudget)
	if err != nil {
		return nil, fmt.Errorf("core: exact transitive closure would exceed %d steps for this agreement graph; set Config.Approx or lower Config.Level: %w", exactBudget, err)
	}
	return finishAllocator(n, clo, aCols, aVals, hasA, cfg), nil
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

// finishAllocator builds the derived caches shared by both constructors,
// each in one pass over the stored entries of T and A.
func finishAllocator(n int, clo *transitive.Closure, aCols [][]int32, aVals [][]float64, hasA bool, cfg Config) *Allocator {
	al := &Allocator{n: n, aCols: aCols, aVals: aVals, hasA: hasA, cfg: cfg, clo: clo}
	al.k = make([][]float64, n)
	al.conn = make([]float64, n)
	for i := 0; i < n; i++ {
		cols, tv := clo.FlowRow(i)
		al.k[i] = capRow(tv)
		al.conn[i] = connOf(i, cols, al.k[i])
	}
	al.transposeColumns()
	al.skel = make([]atomic.Pointer[planSkeleton], n)
	al.pool = newPlanPool()
	return al
}

// capRow applies the overdraft rule K = min(T, 1) to one row's values: the
// row itself when no entry exceeds 1 (K shares T's memory), else a copy.
func capRow(tv []float64) []float64 {
	for x, v := range tv {
		if v > 1 {
			out := append([]float64(nil), tv...)
			for y := x; y < len(out); y++ {
				if out[y] > 1 {
					out[y] = 1
				}
			}
			return out
		}
	}
	return tv
}

// connOf sums K row i off the diagonal, ascending — the dense row sum
// minus its exact zeros.
func connOf(i int, cols []int32, kv []float64) float64 {
	c := 0.0
	for x, j := range cols {
		if int(j) != i {
			c += kv[x]
		}
	}
	return c
}

// FlowRow returns row i of the flow coefficients as stored: the ascending
// columns with a nonzero coefficient, the transitive coefficients T there,
// and the capped ones K = min(T, 1) — the same slice as t unless some
// entry exceeds 1. All three are shared with the allocator and read-only.
func (al *Allocator) FlowRow(i int) (cols []int32, t, k []float64) {
	cols, t = al.clo.FlowRow(i)
	return cols, t, al.k[i]
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
	return transitive.At(al.aCols[k], al.aVals[k], i)
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
	mergeCols(kc, al.aCols[kk], func(c int32, x, y int) {
		var k, a float64
		if x >= 0 {
			k = kv[x]
		}
		if y >= 0 {
			a = al.aVals[kk][y]
		}
		if int(c) != kk {
			fn(c, k, a)
		}
	})
}

// transposeColumns builds colIdx/colK/colA for every principal with one
// counting transpose of K∪A: count each column's sources, lay the columns
// out back to back in three arenas, then fill them walking the rows in
// ascending order — so every column lists its sources ascending, as a
// per-column scan would.
func (al *Allocator) transposeColumns() {
	n := al.n
	start := make([]int, n+1)
	for kk := 0; kk < n; kk++ {
		al.eachInflow(kk, func(c int32, _, _ float64) { start[c+1]++ })
	}
	for c := 0; c < n; c++ {
		start[c+1] += start[c]
	}
	idx := make([]int32, start[n])
	ks := make([]float64, start[n])
	as := make([]float64, start[n])
	al.colIdx = make([][]int32, n)
	al.colK = make([][]float64, n)
	al.colA = make([][]float64, n)
	for c := 0; c < n; c++ {
		lo, hi := start[c], start[c+1]
		// Full slice expressions: a column never grows into its neighbour.
		al.colIdx[c], al.colK[c], al.colA[c] = idx[lo:lo:hi], ks[lo:lo:hi], as[lo:lo:hi]
	}
	for kk := 0; kk < n; kk++ {
		al.eachInflow(kk, func(c int32, kv, av float64) {
			al.colIdx[c] = append(al.colIdx[c], int32(kk))
			al.colK[c] = append(al.colK[c], kv)
			al.colA[c] = append(al.colA[c], av)
		})
	}
}

// newPlanPool returns a workspace pool for one allocator lineage.
func newPlanPool() *sync.Pool {
	return &sync.Pool{New: func() any { return &planWS{clones: map[int]modelClone{}} }}
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
// closure's rows, the K rows that do not alias their T row, the A rows,
// the column lists and the per-principal vectors and slots — not the LP
// skeletons (built on first use) or pooled plan workspaces.
func (al *Allocator) Bytes() int {
	b := al.clo.Bytes()
	for i, kv := range al.k {
		if _, tv := al.clo.FlowRow(i); len(kv) > 0 && &kv[0] != &tv[0] {
			b += 8 * len(kv)
		}
		b += 12*len(al.aCols[i]) + 20*len(al.colIdx[i])
	}
	// Headers: k, aCols, aVals, colIdx, colK, colA; then conn and skel.
	return b + al.n*(6*24+2*8)
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

// capacity computes C_i = V_i + Σ_{k≠i} U_ki walking the precomputed sparse
// column index with its aligned K/A value lists. Sources skipped by the
// index have K_ki = 0 and A_ki = 0, so their U_ki is exactly zero and the
// sum is bit-identical to the dense transitive.Capacities scan. It panics
// on an invalid availability among the entries it reads: every entry of v a
// plan touches passes through here first, so a plan validates what it
// reads and nothing else.
func (al *Allocator) capacity(v []float64, i int) float64 {
	c := v[i]
	if !(c >= 0) {
		panic(invalidV(i, c))
	}
	idx, ks, as := al.colIdx[i], al.colK[i], al.colA[i]
	for x, k := range idx {
		vk := v[k]
		if !(vk >= 0) {
			panic(invalidV(int(k), vk))
		}
		u := vk * ks[x]
		if al.hasA {
			u += as[x]
		}
		if u > vk {
			u = vk
		}
		c += u
	}
	return c
}

// capacityAfter is row pr's capacity at a plan's outcome: V'_k = newV[x]
// where principal k is the plan's live variable x, V_k everywhere else.
func (al *Allocator) capacityAfter(v []float64, pr compRow, newV []float64) float64 {
	c := v[pr.i]
	if pr.self >= 0 {
		c = newV[pr.self]
	}
	idx, ks, as := al.colIdx[pr.i], al.colK[pr.i], al.colA[pr.i]
	for x, k := range idx {
		vk := v[k]
		if y := pr.src[x]; y >= 0 {
			vk = newV[y]
		}
		u := vk * ks[x]
		if al.hasA {
			u += as[x]
		}
		if u > vk {
			u = vk
		}
		c += u
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
	ws := al.pool.Get().(*planWS)
	defer al.pool.Put(ws)
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
// Plan's Take — and returns the grown slices with θ. Nothing of population
// size is read, written or allocated on the way: the plan costs its
// skeleton's variables and rows, and with capacity in the two slices a
// steady-state call allocates nothing. It validates the entries of v the
// plan reads, not the whole vector. On error the slices come back as given.
func (al *Allocator) PlanPairs(sources []int, takes []float64, v []float64, requester int, amount float64) ([]int, []float64, float64, error) {
	al.checkLen(v)
	al.checkRequester(requester)
	ws := al.pool.Get().(*planWS)
	defer al.pool.Put(ws)
	if err := al.plan(ws, v, requester, amount); err != nil {
		return sources, takes, 0, err
	}
	sources, takes = ws.appendPairs(sources, takes)
	return sources, takes, ws.theta, nil
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
// planned skeleton's variables and the sources of its rows, and nowhere
// else.
func (al *Allocator) plan(ws *planWS, v []float64, requester int, amount float64) error {
	ws.vars, ws.theta = nil, 0
	if amount < 0 {
		return fmt.Errorf("core: negative request %g", amount)
	}
	if c := al.capacity(v, requester); c < amount-1e-9 {
		return fmt.Errorf("%w: principal %d has capacity %g, requested %g",
			ErrInsufficient, requester, c, amount)
	}
	if num.IsZero(amount) {
		return nil // the empty plan: no take, V' = V, θ = 0
	}
	sk := al.skeleton(requester)
	c := ws.clones[requester]
	if c.of != sk {
		c = modelClone{model: sk.model.Clone(), of: sk}
		ws.clones[requester] = c
	}
	al.bindPlan(ws, sk, v, requester)
	al.rebind(c.model, sk, v, amount, ws)
	sol, err := c.model.SolveWithWorkspace(lp.Tableau, &ws.lpws)
	if err != nil {
		return fmt.Errorf("core: allocation LP failed: %w", err)
	}
	ws.readNewV(sol)
	return al.finishPlan(ws, sk, v, amount)
}

// bindPlan sizes ws for a plan over sk and fills what the rebinding and the
// finish read: the requester's U column by variable position, and C_i for
// every kept row.
func (al *Allocator) bindPlan(ws *planWS, sk *planSkeleton, v []float64, requester int) {
	live := len(sk.vars)
	ws.vars = sk.vars
	ws.uCol, ws.take, ws.newV = sized(ws.uCol, live), sized(ws.take, live), sized(ws.newV, live)
	ws.caps = sized(ws.caps, len(sk.rows))
	// The requester's U column, computed once: it bounds V'_i from below
	// in the LP and caps each source's take during normalization. Live
	// principals outside colIdx[requester] have K = A = 0, so their U is
	// exactly 0 — zero-filling and walking the sparse column matches the
	// dense scan.
	clear(ws.uCol)
	uIdx, uKs, uAs := al.colIdx[requester], al.colK[requester], al.colA[requester]
	y := 0
	for x, k := range uIdx {
		u := v[k] * uKs[x]
		if al.hasA {
			u += uAs[x]
		}
		if u > v[k] {
			u = v[k]
		}
		for sk.vars[y] != k {
			y++ // vars holds the whole column, both ascending
		}
		ws.uCol[y] = u
	}
	ws.uCol[sk.req] = v[requester]
	for r, pr := range sk.rows {
		ws.caps[r] = al.capacity(v, int(pr.i))
	}
}

// sized returns buf with length n, reallocating only when it must grow;
// the contents are unspecified.
func sized(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// buildSkeleton constructs requester's substituted LP structure with
// placeholder bounds and right-hand sides, in the variable and constraint
// order of the historical per-call construction, so solves over a rebound
// skeleton pivot identically. It runs on the write path — every share and
// revoke drops skeletons — so it is a counting walk over the kept rows'
// column lengths and one emitting pass into a model reserved to that
// count: every slice is made once, terms go through one scratch, and no
// name is formatted (varName and rowName give them on demand).
//
// Under cfg.ComponentLP only the requester and its source column are
// live variables. In the full formulation every other V'_k is pinned by
// its bounds (lo = v_k − U_k,req = v_k = up, because its U toward the
// requester is exactly zero), so those variables and every perturb row
// none of the live variables feeds are constants: folding them into the
// right-hand sides leaves the feasible set and the optimum value
// unchanged while the tableau shrinks to the agreement neighborhood.
// Fold values are recomputed from the column triples on every solve
// (rebind), so agreement-value changes stay as fresh as the capFlowRows
// rebinding. The full formulation is the same construction with every
// principal live and nothing to fold.
func (al *Allocator) buildSkeleton(sk *planSkeleton, requester int) {
	comp, reqCol := al.cfg.ComponentLP, al.colIdx[requester]
	// kept lists the principals whose perturb row survives, ascending: a
	// row stays only if a live variable appears in it — its own V' is
	// live, or a live source feeds it. Everything else is a constant
	// inequality any θ ≥ 0 already satisfies.
	var kept []int32
	if comp {
		// The requester merged into its ascending source column.
		sk.req, _ = slices.BinarySearch(reqCol, int32(requester))
		sk.vars = append(append(append(make([]int32, 0, len(reqCol)+1), reqCol[:sk.req]...), int32(requester)), reqCol[sk.req:]...)
		reach := len(sk.vars)
		for _, k := range sk.vars {
			reach += len(al.k[k]) + len(al.aCols[k])
		}
		kept = append(make([]int32, 0, reach), sk.vars...)
		for _, k := range sk.vars {
			kc, _, kv := al.FlowRow(int(k))
			for x, j := range kc {
				if j != k && !num.IsZero(kv[x]) {
					kept = append(kept, j)
				}
			}
			for x, j := range al.aCols[k] {
				if j != k && al.aVals[k][x] > 0 {
					kept = append(kept, j)
				}
			}
		}
		slices.Sort(kept)
		kept = slices.Compact(kept)
	} else {
		sk.vars, sk.req = make([]int32, al.n), requester
		for i := range sk.vars {
			sk.vars[i] = int32(i)
		}
		kept = sk.vars
	}
	live, nRows, nAux, nSrc := len(sk.vars), 0, 0, 0
	for _, i := range kept {
		if int(i) == requester { // eq. 6 spares the requester: see the package comment
			continue
		}
		nRows++
		nSrc += len(al.colIdx[i])
		for _, a := range al.colA[i] {
			if al.hasA && a > 0 {
				nAux++ // an upper bound under ComponentLP: a pinned source gets no u
			}
		}
	}
	m := lp.NewModel(lp.Minimize)
	m.Reserve(live+1+nAux, 1+nRows+2*nAux, live+2*nRows+nSrc+4*nAux)
	m.NameWith(sk.varName, sk.rowName)
	sk.rows = make([]compRow, 0, nRows)
	sk.capFlowRows = make([]capFlowRef, 0, nAux)
	var pos []int32 // the arena compRow.src views under ComponentLP
	if comp {
		pos = make([]int32, 0, nSrc)
	}
	terms := make([]lp.Term, 0, live+1) // no row is longer: a V' or u per live principal, and theta

	// Tie-breaking: prefer drawing from weakly connected sources, whose
	// capacity matters least to everyone else. V'_i enters the objective
	// with −ε·conn_i so that *keeping* well-connected capacity is
	// rewarded.
	const eps = 1e-6
	for x, i := range sk.vars {
		m.AddVar("", 0, 0, -eps*al.conn[i])
		terms = append(terms, lp.Term{Var: lp.VarID(x), Coeff: 1})
	}
	theta := m.AddVar("", 0, lp.Inf, 1)
	// Σ_{live} V'_i = Σ_{live} V_i − amount (eq. 5 with the pinned
	// variables cancelled from both sides).
	sk.consumeRow = m.AddConstraint("", terms, lp.EQ, 0)

	// C'_i ≥ C_i − θ for the non-requesting principals (eq. 6).
	for _, i := range kept {
		if int(i) == requester {
			continue
		}
		idx, ks, as := al.colIdx[i], al.colK[i], al.colA[i]
		pr := compRow{i: i, self: i, src: idx}
		if comp {
			pr.self, pr.src = sk.find(i), pos[len(pos):len(pos)+len(idx):len(pos)+len(idx)]
			pos = pos[:len(pos)+len(idx)]
			for x, k := range idx {
				pr.src[x] = sk.find(k)
			}
		}
		terms = terms[:0]
		if pr.self >= 0 {
			terms = append(terms, lp.Term{Var: lp.VarID(pr.self), Coeff: 1})
		}
		terms = append(terms, lp.Term{Var: theta, Coeff: 1})
		// Walk the sparse column: colIdx lists exactly the k ≠ i with
		// K_ki ≠ 0 or A_ki ≠ 0, ascending — the same sources the dense
		// k-loop would admit, in the same order. When absolute agreements
		// are present, min(V'_k·K_ki + A_ki, V'_k) is linearized with
		// auxiliary variables u_ki (its superlevel set is convex).
		for x, at := range pr.src {
			vk := lp.VarID(at)
			switch {
			case at < 0: // pinned source: folded into the RHS per solve
			case al.hasA && as[x] > 0:
				u := m.AddVar("", 0, lp.Inf, 0)
				capFlow := m.AddConstraint("", []lp.Term{{Var: u, Coeff: 1}, {Var: vk, Coeff: -ks[x]}}, lp.LE, as[x])
				sk.capFlowRows = append(sk.capFlowRows, capFlowRef{row: capFlow, k: idx[x], i: i})
				m.AddConstraint("", []lp.Term{{Var: u, Coeff: 1}, {Var: vk, Coeff: -1}}, lp.LE, 0)
				terms = append(terms, lp.Term{Var: u, Coeff: 1})
			case !num.IsZero(ks[x]):
				terms = append(terms, lp.Term{Var: vk, Coeff: ks[x]})
			}
		}
		pr.row = m.AddConstraint("", terms, lp.GE, 0)
		sk.rows = append(sk.rows, pr)
	}
	sk.model = m
}

// find returns principal i's position in the ascending vars, -1 when pinned.
func (sk *planSkeleton) find(i int32) int32 {
	if x, ok := slices.BinarySearch(sk.vars, i); ok {
		return int32(x)
	}
	return -1
}

// varName names model variable v on demand: the V'_i in vars' order, theta,
// then one u_k_i per capFlowRows entry.
func (sk *planSkeleton) varName(v lp.VarID) string {
	switch x := int(v) - len(sk.vars); {
	case x < 0:
		return fmt.Sprintf("V'_%d", sk.vars[v])
	case x == 0:
		return "theta"
	default:
		return fmt.Sprintf("u_%d_%d", sk.capFlowRows[x-1].k, sk.capFlowRows[x-1].i)
	}
}

// rowName names model row r on demand: perturb rows and cap_flow rows are
// both ascending by row, and a cap_own row follows its cap_flow row.
func (sk *planSkeleton) rowName(r int) string {
	if r == sk.consumeRow {
		return "consume"
	}
	if x, ok := slices.BinarySearchFunc(sk.rows, r, func(pr compRow, r int) int { return pr.row - r }); ok {
		return fmt.Sprintf("perturb_%d", sk.rows[x].i)
	}
	x, _ := slices.BinarySearchFunc(sk.capFlowRows, r-1, func(cf capFlowRef, r int) int { return cf.row - r })
	cf := sk.capFlowRows[x]
	if cf.row == r {
		return fmt.Sprintf("cap_flow_%d_%d", cf.k, cf.i)
	}
	return fmt.Sprintf("cap_own_%d_%d", cf.k, cf.i)
}

// rebind is plan's per-solve rebinding: bounds and the consume
// row cover the live variables, and every kept perturb row's RHS re-folds
// its pinned sources' contributions from the current column triples (so
// agreement value changes are as fresh here as capFlowRows rebinding
// makes them). With every principal live nothing is pinned and a row's
// RHS is C_i itself.
func (al *Allocator) rebind(m *lp.Model, sk *planSkeleton, v []float64, amount float64, ws *planWS) {
	var sumLive float64
	for x, i := range sk.vars {
		lo := v[i] - ws.uCol[x]
		if lo < 0 {
			lo = 0
		}
		m.SetBounds(lp.VarID(x), lo, v[i])
		sumLive += v[i]
	}
	m.SetRHS(sk.consumeRow, sumLive-amount)
	for r, pr := range sk.rows {
		i := int(pr.i)
		rhs := ws.caps[r]
		if pr.self < 0 {
			rhs -= v[i] // pinned self term
		}
		idx, ks, as := al.colIdx[i], al.colK[i], al.colA[i]
		for x, k := range idx {
			if pr.src[x] >= 0 {
				continue // live: its terms are in the model
			}
			hasAbs := al.hasA && as[x] > 0
			if !hasAbs {
				if !num.IsZero(ks[x]) {
					rhs -= ks[x] * v[k]
				}
				continue
			}
			// The pinned flow takes its LP maximum min(v_k·K + A, v_k):
			// u_ki appears only positively in this ≥ row, so any optimum
			// admits it at its cap.
			u := v[k]*ks[x] + as[x]
			if u > v[k] {
				u = v[k]
			}
			rhs -= u
		}
		m.SetRHS(pr.row, rhs)
	}
	for _, cf := range sk.capFlowRows {
		m.SetRHS(cf.row, al.aAt(int(cf.k), int(cf.i)))
	}
}

// skeleton returns requester's LP skeleton, building it on first use.
func (al *Allocator) skeleton(requester int) *planSkeleton {
	sk := slotOf(&al.skel[requester])
	sk.once.Do(func() { al.buildSkeleton(sk, requester) })
	return sk
}

// slotOf returns the value of a lazily filled slot, installing an empty
// one on first use; racing first users all get the one that won the CAS.
func slotOf[T any](slot *atomic.Pointer[T]) *T {
	if v := slot.Load(); v != nil {
		return v
	}
	slot.CompareAndSwap(nil, new(T))
	return slot.Load()
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
// skeleton's rows are looked at (the requester has none): a principal
// outside them has every source pinned at V_k, its C'_i is the same sum over
// the same numbers as C_i, and its difference is exactly 0, which the
// maximum already starts from.
func (al *Allocator) finishPlan(ws *planWS, sk *planSkeleton, v []float64, amount float64) error {
	for x, i := range sk.vars {
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
	if resid := normalizeTakes(ws.take, ws.newV, sk.vars, v, amount, ws.uCol, al.n); math.Abs(resid) > 1e-9*math.Max(1, amount) {
		// Every source with a take is pinned at its agreement cap and the
		// solution still misses the request: the plan cannot be repaired
		// within the agreements. Surface it instead of returning an
		// allocation that silently under- or over-delivers.
		return fmt.Errorf("core: repaired allocation off by %g of %g requested with every source at its cap: %w",
			resid, amount, ErrInfeasible)
	}
	worst := 0.0
	for r, pr := range sk.rows {
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
