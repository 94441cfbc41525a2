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
