// Package num centralizes floating-point comparison policy for the
// numeric layers (lp, transitive, core, planners, agreement). Raw ==/!= on floats
// is banned there by the sharingvet floateq analyzer; comparisons must go
// through these helpers so every call site states whether it wants exact
// (bit-level, e.g. sparsity guards) or tolerant (epsilon) semantics.
package num

import "math"

// Eps is the default relative tolerance for Eq/Leq/Geq. The LP layer
// resolves pivots around 1e-9; values closer than that are numerically
// indistinguishable to the solver.
const Eps = 1e-9

// Eq reports whether a and b are equal within Eps, scaled by the larger
// magnitude (relative for large values, absolute near zero).
func Eq(a, b float64) bool {
	if a == b { //lint:ignore sharingvet/floateq the helper the analyzer points to
		return true
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= Eps*scale
}

// IsZero reports whether x is exactly zero. It exists for sparsity
// guards — "skip this matrix entry / objective coefficient" — where the
// test is structural (was anything ever stored here?) and an epsilon
// would silently drop small but real values. Use Eq(x, 0) when you mean
// "numerically negligible".
func IsZero(x float64) bool {
	return x == 0 //lint:ignore sharingvet/floateq exact zero is the documented contract
}

// SolveTol is the documented tolerance for a quantity that comes out of
// an LP solve and is then compared with one reached another way: the
// bench's book check holds a reply's takes against the requested amount
// and a status's availability against what was reported, and two
// optimal solutions reached along different pivot paths compare the
// same way. Each lands within the solver's feasibility tolerance (1e-7)
// of the optimum, but what is reported can differ by accumulated pivot
// round-off on either side; 1e-6 relative absorbs that while still
// catching genuinely divergent answers. Incremental
// results that must be bit-identical (closure deltas, COW allocator
// state) are pinned with exact comparison instead — this constant is
// only for solver outputs.
const SolveTol = 1e-6

// EqSolve reports whether two solver outputs (objective values, solution
// coordinates, allocation takes) are equal within SolveTol, scaled by the
// larger magnitude. This is the comparison bench/check.go makes on every
// reply and every status.
func EqSolve(a, b float64) bool {
	if a == b { //lint:ignore sharingvet/floateq the helper the analyzer points to
		return true
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= SolveTol*scale
}

// Leq reports a <= b within Eps tolerance (a may exceed b by Eps*scale).
func Leq(a, b float64) bool {
	if a <= b {
		return true
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return a-b <= Eps*scale
}

// Geq reports a >= b within Eps tolerance.
func Geq(a, b float64) bool { return Leq(b, a) }

// ChainSumTol is the documented tolerance between two exact transitive
// closures of one agreement graph that sum the same cycle-free chains in
// different orders — transitive's enumerating DFS, its subset DP, and the
// brute-force oracle in modeltest. Every term is a non-negative product of
// the same edge weights, so nothing cancels and the difference is pure
// accumulated round-off, and nearly all of it is the enumeration's: adding
// N chains into one entry one at a time can lose N ulps, and an entry of
// the paper's complete 10-principal graph has 109 601 chains (1.2e-11
// relative at worst). Measured against the closed form on uniform
// complete graphs of 8 to 10 principals, the DFS is off by up to 1.6e-12
// and the DP, which adds a few hundred partial sums, by at most 1.1e-14.
// 1e-10 sits an order of magnitude above the enumeration's worst case
// there and one below the 1e-9 the scenario bundles and the LP already
// treat as equal. Results of one kernel on one graph (delta against
// rebuild, one worker against eight) stay pinned bit for bit; this
// constant is only for comparing across kernels, and for re-blessing a
// recorded trace whose closure moved from one kernel to the other.
const ChainSumTol = 1e-10

// EqChainSum reports whether two flow coefficients are equal within
// ChainSumTol of the larger magnitude. It is purely relative: a
// coefficient is a sum of products of shares and can be legitimately
// tiny.
func EqChainSum(a, b float64) bool {
	if a == b { //lint:ignore sharingvet/floateq the helper the analyzer points to
		return true
	}
	return math.Abs(a-b) <= ChainSumTol*math.Max(math.Abs(a), math.Abs(b))
}
