//go:build !race

package lp

import "testing"

// TestReservedBuildAllocatesNothing pins the builder's hot path: into a
// model with reserved room, AddVar and AddConstraint — duplicates merged,
// zeros dropped — allocate nothing: no name, no map, no per-row slice. The
// race detector's instrumentation allocates, so the race legs skip this
// file.
func TestReservedBuildAllocatesNothing(t *testing.T) {
	const vars, rows = 32, 40
	terms := make([]Term, 0, vars+2)
	var m *Model
	build := func() {
		for v := 0; v < vars; v++ {
			m.AddVar("", 0, 1, float64(v))
		}
		for r := 0; r < rows; r++ {
			terms = terms[:0]
			for v := r % 3; v < vars; v += 1 + r%4 {
				terms = append(terms, Term{Var: VarID(v), Coeff: float64(1 + r)})
			}
			terms = append(terms, Term{Var: 0, Coeff: 2}, Term{Var: 1, Coeff: 0}) // a duplicate and a zero
			m.AddConstraint("", terms, LE, 1)
		}
	}
	got := testing.AllocsPerRun(20, func() {
		m = NewModel(Minimize)
		m.Reserve(vars, rows, rows*(vars+2))
		build()
	})
	// The model, its variable and constraint headers, the stamp scratch and
	// the one arena.
	if got != 5 {
		t.Fatalf("a reserved build of %d variables and %d rows makes %v allocations, want the 5 of NewModel and Reserve", vars, rows, got)
	}
	if m.NumVars() != vars || m.NumConstraints() != rows {
		t.Fatalf("built %d variables and %d rows", m.NumVars(), m.NumConstraints())
	}
}
