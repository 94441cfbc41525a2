package core

import (
	"fmt"
	"slices"

	"repro/internal/transitive"
)

// Helpers shared with the external core_test package, whose tests drive
// core through package planners.
var (
	Almost              = almost
	RandomScenario      = randomScenario
	Churn128Allocator   = churn128Allocator
	Ring64Allocator     = ring64Allocator
	SparseBlockScenario = sparseBlockScenario
	Sparse              = sparse
)

// LayoutDiff describes the first of got's tables — the closure's S and T,
// A, K and the columns — that holds more dead entries than live ones,
// counts live entries its rows do not hold, or whose live rows differ from
// want's bit for bit; "" when none does.
func LayoutDiff(got, want *Allocator) string {
	gs, gt := got.clo.Tables()
	ws, wt := want.clo.Tables()
	tables := []struct {
		name string
		g, w *transitive.Table
	}{{"S", gs, ws}, {"T", gt, wt}, {"A", &got.a, &want.a}, {"K", &got.k, &want.k}, {"columns", &got.cols, &want.cols}}
	for _, tb := range tables {
		if tb.g.Dead() > tb.g.Live() {
			return fmt.Sprintf("%s holds %d dead entries and %d live ones", tb.name, tb.g.Dead(), tb.g.Live())
		}
		if tb.g.N() != tb.w.N() {
			return fmt.Sprintf("%s has %d rows against %d", tb.name, tb.g.N(), tb.w.N())
		}
		held := 0
		for i := 0; i < tb.g.N(); i++ {
			held += tb.g.Len(i)
		}
		if held != tb.g.Live() {
			return fmt.Sprintf("%s counts %d live entries, its rows hold %d", tb.name, tb.g.Live(), held)
		}
		for i := 0; i < tb.g.N(); i++ {
			gc, gv := tb.g.Row(i)
			wc, wv := tb.w.Row(i)
			if !slices.Equal(gc, wc) || !sameBits(gv, wv) {
				return fmt.Sprintf("%s row %d: %v %v against %v %v", tb.name, i, gc, gv, wc, wv)
			}
		}
	}
	return ""
}
