package core

// Helpers shared with the external core_test package, whose tests drive
// core through package planners.
var (
	Almost         = almost
	RandomScenario = randomScenario
)
