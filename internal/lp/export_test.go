package lp

// The test LP builders, for bounded_test.go: it is package lp_test because
// it imports modeltest, which imports lp.
var (
	RandomFeasibleLP = randomFeasibleLP
	BenchLP          = benchLP
	SchedulerShapeLP = schedulerShapeLP
)
