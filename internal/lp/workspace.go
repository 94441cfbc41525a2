package lp

// Workspace holds the scratch state of a tableau solve — the standard-form
// conversion (which the tableau pivots in place), the tableau's reduced
// costs and basis, and the phase-1 / extraction vectors — so that repeated
// solves of same-shaped models reuse one set of buffers instead of
// reallocating them per call. The zero value is ready to use.
//
// A Workspace may be reused across models of different shapes (buffers grow
// as needed) but must not be used by two solves concurrently. It also owns
// the Solution a solve returns: the next solve on the same Workspace
// overwrites it, so a caller that keeps answers across solves copies what
// it needs first (Values does).
type Workspace struct {
	sf     standardForm
	t      tableau
	phase1 []float64
	x      []float64
	sol    Solution
}

// solution resets the workspace's Solution for a solve of m and returns it.
func (ws *Workspace) solution(m *Model) *Solution {
	ws.sol = Solution{
		values: zeroed(ws.sol.values, len(m.vars)),
		duals:  zeroed(ws.sol.duals, len(m.cons)),
	}
	return &ws.sol
}

// Method and Tableau are a compile shim for bench/layers.go, which passes
// Tableau to SolveWithWorkspace (as core does); nothing reads the value,
// because lp has one solver (ROADMAP item 1f).
type Method int

const Tableau Method = 0

// SolveWithWorkspace is Solve drawing all solver scratch from ws, including
// the returned Solution, which is valid until the next solve on ws; a nil
// ws means Solve. The numeric results are identical to Solve's: buffer
// reuse changes where intermediates live, never the order of floating-point
// operations. The Method argument is ignored (see Method).
func (m *Model) SolveWithWorkspace(_ Method, ws *Workspace) (*Solution, error) {
	if ws == nil {
		return m.Solve()
	}
	return m.solveTableau(ws)
}
