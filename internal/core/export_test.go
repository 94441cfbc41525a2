package core

import "slices"

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

// SkeletonsKept reads what al's skeleton slots hold and returns a report of
// whether they still hold exactly those skeletons.
func SkeletonsKept(al *Allocator) func() bool {
	built := skeletons(al)
	return func() bool { return slices.Equal(skeletons(al), built) }
}
