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
// anything denser or larger; sparse graphs are charged their chains. It
// meters the closure's delta path too, refusing a mutation as a build
// would.
const exactBudget = 50_000_000

// Allocator enforces sharing agreements by linear programming. Only
// PatchShare and PatchAgreement change it, for a sole owner (mutate.go);
// otherwise it is safe for concurrent use: the lazily built LP skeletons
// and the pooled plan workspaces are internally synchronized.
type Allocator struct {
	// epoch marks the columns it may write over (mutate.go); first, so
	// sync/atomic finds it 64-bit aligned.
	epoch uint64
	n     int
	// aCols/aVals hold the absolute agreement matrix A in row-sparse form
	// (ascending columns, values aligned); hasA records whether an A was
	// supplied at all — an explicitly passed all-zero matrix still counts,
	// preserving the historical `a != nil` behavior. The relative matrix S
	// lives inside clo's CSR rows; neither dense n×n array is materialized.
	aCols [][]int32
	aVals [][]float64
	hasA  bool
	flow  []flowRow // flow[i] is row i of K with its row sum
	cfg   Config
	cols  []column // cols[i] is column i of K∪A, what capacity sums walk
	// skel[r] caches the LP skeleton for requester r: a shape, which follows
	// the sparsity patterns of K and A alone while rebind writes every number
	// in it per solve, so allocators whose patterns agree share one table.
	// Slots stay nil until a requester first plans, so invalidating every
	// skeleton is one fresh slice.
	skel []atomic.Pointer[planSkeleton]
	// clo is the transitive closure, which a mutation patches by rows.
	clo *transitive.Closure
	// pool recycles plan workspaces (*planWS), shared by every derived and
	// grown allocator: nothing in one is sized by the population, and the
	// simplex scratch is the largest thing a plan allocates.
	pool *sync.Pool
}

// flowRow is row i of the capped flow coefficients K = min(T, 1), aligned
// with the closure's FlowRow(i) columns (a row the cap does not bite is the
// closure's own value slice), and conn, its sum off the diagonal: how much
// of i's capacity others can reach, the weight of i's tie-break.
type flowRow struct {
	k    []float64
	conn float64
}

// column lists the sources k ≠ i with a nonzero flow into principal i
// (K_ki ≠ 0 or A_ki ≠ 0), ascending, with their K_ki and A_ki: what a
// capacity sum reads, bit-identical to the dense scan, whose other terms are
// exactly zero. Columns are views of an int32 and a float64 arena, laid out
// by a build (transposeColumns) or by a mutation for the columns it moves;
// epoch is that of the allocator whose mutation laid it out, 0 for a build's.
type column struct {
	idx   []int32
	k, a  []float64
	epoch uint64
}

// planSkeleton is the reusable part of requester r's substituted LP: the
// model's shape, and where rebind finds its numbers. Built once per
// requester on first use, and sized by its variables: a ComponentLP
// skeleton costs its component wherever in a population it is.
type planSkeleton struct {
	once       sync.Once
	model      *lp.Model
	consumeRow int
	// capFlowRows lists the cap_flow_k_i rows in the order rebind meets
	// them. The j-th one's auxiliary variable u_k_i is model variable
	// len(vars)+1+j and its cap_own_k_i row the next row.
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
// position and src[x] that of source cols[i].idx[x], -1 for the pinned: the
// column itself where everyone is live, else a view of one position arena.
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
	al := &Allocator{epoch: epochs.Add(1), n: n, aCols: aCols, aVals: aVals, hasA: hasA, cfg: cfg, clo: clo}
	al.flow = make([]flowRow, n)
	for i := range al.flow {
		al.flow[i] = flowRowOf(clo, i)
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

// flowRowOf derives row i of K from the closure's T row, its conn summed off
// the diagonal, ascending — the dense row sum minus its exact zeros.
func flowRowOf(clo *transitive.Closure, i int) flowRow {
	cols, tv := clo.FlowRow(i)
	r := flowRow{k: capRow(tv)}
	for x, j := range cols {
		if int(j) != i {
			r.conn += r.k[x]
		}
	}
	return r
}

// FlowRow returns row i of the flow coefficients as stored: the ascending
// columns with a nonzero coefficient, the transitive coefficients T there,
// and the capped ones K = min(T, 1) — the same slice as t unless some
// entry exceeds 1. All three are shared with the allocator and read-only.
func (al *Allocator) FlowRow(i int) (cols []int32, t, k []float64) {
	cols, t = al.clo.FlowRow(i)
	return cols, t, al.flow[i].k
}

// sameArray reports whether two non-empty slices start at one element.
func sameArray(a, b []float64) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

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

// transposeColumns builds every column with one counting transpose of K∪A:
// count each column's sources, lay the columns out back to back (K values in
// the float arena's first half, A in its second), then fill them walking the
// rows in ascending order, so every column lists its sources ascending.
func (al *Allocator) transposeColumns() {
	n := al.n
	start := make([]int, n+1)
	for kk := 0; kk < n; kk++ {
		al.eachInflow(kk, func(c int32, _, _ float64) { start[c+1]++ })
	}
	for c := 0; c < n; c++ {
		start[c+1] += start[c]
	}
	idx, vals := make([]int32, start[n]), make([]float64, 2*start[n])
	ks, as := vals[:start[n]], vals[start[n]:]
	al.cols = make([]column, n)
	for c := range al.cols {
		lo, hi := start[c], start[c+1]
		// Full slice expressions: a column never grows into its neighbour.
		al.cols[c] = column{idx: idx[lo:lo:hi], k: ks[lo:lo:hi], a: as[lo:lo:hi]}
	}
	for kk := 0; kk < n; kk++ {
		al.eachInflow(kk, func(c int32, kv, av float64) {
			al.cols[c].append(int32(kk), kv, av)
		})
	}
}

// append adds source k with its K and A values to the column.
func (col *column) append(k int32, kv, av float64) {
	col.idx, col.k, col.a = append(col.idx, k), append(col.k, kv), append(col.a, av)
}

// since returns the column's entries from position from on, cap-limited so
// the view never grows into whatever follows it.
func (col column) since(from int) column {
	end := len(col.idx)
	return column{idx: col.idx[from:end:end], k: col.k[from:end:end], a: col.a[from:end:end], epoch: col.epoch}
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
	for i, r := range al.flow {
		if _, tv := al.clo.FlowRow(i); !sameArray(r.k, tv) {
			b += 8 * len(r.k)
		}
		b += 12*len(al.aCols[i]) + 20*len(al.cols[i].idx)
	}
	// Per principal: a flow row, an A row, a column with its epoch and a
	// skeleton slot.
	return b + al.n*(6*24+3*8)
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
// sum is bit-identical to the dense transitive.Capacities scan. It panics
// on an invalid availability among the entries it reads: every entry of v a
// plan touches passes through here first, so a plan validates what it
// reads and nothing else.
func (al *Allocator) capacity(v []float64, i int) float64 {
	c := v[i]
	if !(c >= 0) {
		panic(invalidV(i, c))
	}
	col := &al.cols[i]
	for x, k := range col.idx {
		vk := v[k]
		if !(vk >= 0) {
			panic(invalidV(int(k), vk))
		}
		c += al.sourceCap(col, x, vk)
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
	col := &al.cols[pr.i]
	for x, k := range col.idx {
		vk := v[k]
		if y := pr.src[x]; y >= 0 {
			vk = newV[y]
		}
		c += al.sourceCap(col, x, vk)
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
		return &shortfall{principal: requester, capacity: c, amount: amount}
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
	// principals outside the requester's column have K = A = 0, so their U
	// is exactly 0 — zero-filling and walking the sparse column matches the
	// dense scan.
	clear(ws.uCol)
	col := &al.cols[requester]
	y := 0
	for x, k := range col.idx {
		for sk.vars[y] != k {
			y++ // vars holds the whole column, both ascending
		}
		ws.uCol[y] = al.sourceCap(col, x, v[k])
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

// buildSkeleton constructs requester's substituted LP structure, in the
// variable and constraint order of the historical per-call construction, so
// solves over a rebound skeleton pivot identically. What it emits depends on
// the patterns of K and A alone; rebind overwrites every number. A write
// that flips a cell drops skeletons, so a build is a counting walk over the
// kept rows' column lengths and one pass into a model reserved to that
// count: every slice is made once, terms go through one scratch, and no
// name is formatted (varName and rowName give them on demand).
//
// Under cfg.ComponentLP only the requester and its source column are
// live variables. In the full formulation every other V'_k is pinned by
// its bounds (lo = v_k − U_k,req = v_k = up, because its U toward the
// requester is exactly zero), so those variables and every perturb row
// none of the live variables feeds are constants: folding them into the
// right-hand sides (rebind) leaves the feasible set and the optimum value
// unchanged while the tableau shrinks to the agreement neighborhood. The
// full formulation is the same construction with every principal live and
// nothing to fold.
func (al *Allocator) buildSkeleton(sk *planSkeleton, requester int) {
	comp, reqCol := al.cfg.ComponentLP, al.cols[requester].idx
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
			reach += len(al.flow[k].k) + len(al.aCols[k])
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
		nSrc += len(al.cols[i].idx)
		for _, a := range al.cols[i].a {
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

	for x, i := range sk.vars {
		m.AddVar("", 0, 0, al.tieBreak(i))
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
		col := &al.cols[i]
		pr := compRow{i: i, self: i, src: col.idx}
		if comp {
			end := len(pos) + len(col.idx)
			pr.self, pr.src, pos = sk.find(i), pos[len(pos):end:end], pos[:end]
			for x, k := range col.idx {
				pr.src[x] = sk.find(k)
			}
		}
		terms = terms[:0]
		if pr.self >= 0 {
			terms = append(terms, lp.Term{Var: lp.VarID(pr.self), Coeff: 1})
		}
		terms = append(terms, lp.Term{Var: theta, Coeff: 1})
		// Walk the sparse column: it lists exactly the k ≠ i with K_ki ≠ 0
		// or A_ki ≠ 0, ascending — the same sources the dense k-loop would
		// admit, in the same order. When absolute agreements are present,
		// min(V'_k·K_ki + A_ki, V'_k) is linearized with auxiliary variables
		// u_ki (its superlevel set is convex). Every K term is nonzero, so
		// AddConstraint keeps each where rebind finds it.
		for x, at := range pr.src {
			vk := lp.VarID(at)
			switch {
			case at < 0: // pinned source: folded into the RHS per solve
			case al.hasA && col.a[x] > 0:
				u := m.AddVar("", 0, lp.Inf, 0)
				capFlow := m.AddConstraint("", []lp.Term{{Var: u, Coeff: 1}, {Var: vk, Coeff: -col.k[x]}}, lp.LE, col.a[x])
				sk.capFlowRows = append(sk.capFlowRows, capFlowRef{row: capFlow, k: col.idx[x], i: i})
				m.AddConstraint("", []lp.Term{{Var: u, Coeff: 1}, {Var: vk, Coeff: -1}}, lp.LE, 0)
				terms = append(terms, lp.Term{Var: u, Coeff: 1})
			case !num.IsZero(col.k[x]):
				terms = append(terms, lp.Term{Var: vk, Coeff: col.k[x]})
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

// tieBreak is V'_i's objective coefficient, −ε·conn_i: drawing from weakly
// connected sources, whose capacity matters least to everyone else, wins.
func (al *Allocator) tieBreak(i int32) float64 {
	const eps = 1e-6
	return -eps * al.flow[i].conn
}

// rebind writes every number of plan's model m from the current agreements,
// availability and request: bounds and objective, the consume row, each kept
// perturb row's K terms and RHS (re-folding its pinned sources; with everyone
// live the RHS is C_i) and each cap_flow row's −K term and RHS. It finds
// terms where buildSkeleton emitted them, which the patterns fix, so m comes
// out as a fresh build's, whichever allocator last rebound it.
func (al *Allocator) rebind(m *lp.Model, sk *planSkeleton, v []float64, amount float64, ws *planWS) {
	var sumLive float64
	for x, i := range sk.vars {
		lo := v[i] - ws.uCol[x]
		if lo < 0 {
			lo = 0
		}
		m.SetBounds(lp.VarID(x), lo, v[i])
		m.SetObj(lp.VarID(x), al.tieBreak(i))
		sumLive += v[i]
	}
	m.SetRHS(sk.consumeRow, sumLive-amount)
	aux := 0 // the next capFlowRows entry
	for r, pr := range sk.rows {
		i := int(pr.i)
		rhs := ws.caps[r]
		term := 2 // the next term: past V'_i's and theta's
		if pr.self < 0 {
			rhs, term = rhs-v[i], 1 // pinned self term
		}
		col := &al.cols[i]
		for x, k := range col.idx {
			kv, hasAbs := col.k[x], al.hasA && col.a[x] > 0
			switch {
			case pr.src[x] >= 0 && hasAbs: // u_ki's term; its cap_flow row holds the K
				cf := sk.capFlowRows[aux].row
				aux, term = aux+1, term+1
				if !num.IsZero(kv) {
					m.SetCoeff(cf, 1, -kv)
				}
				m.SetRHS(cf, col.a[x])
			case pr.src[x] >= 0:
				if !num.IsZero(kv) {
					m.SetCoeff(pr.row, term, kv)
					term++
				}
			case hasAbs:
				// The pinned flow takes its LP maximum min(v_k·K + A, v_k):
				// u_ki appears only positively in this ≥ row, so any optimum
				// admits it at its cap.
				rhs -= al.sourceCap(col, x, v[k])
			case !num.IsZero(kv):
				rhs -= kv * v[k]
			}
		}
		m.SetRHS(pr.row, rhs)
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
