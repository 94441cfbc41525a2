package core

// Helpers shared with the external core_test package, whose tests drive
// core through package planners.
var (
	Almost              = almost
	RandomScenario      = randomScenario
	Churn128Allocator   = churn128Allocator
	Ring64Allocator     = ring64Allocator
	SparseBlockScenario = sparseBlockScenario
	SharesSkeletons     = sameSkeletons
)

// StructCopy copies al's struct as it stands: its tables are al's own, so it
// serves to ask later whether a patch of al replaced a table, not to plan.
func (al *Allocator) StructCopy() *Allocator {
	d := *al
	return &d
}
