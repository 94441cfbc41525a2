package batch

import (
	"math/rand"
	"testing"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/planners"
)

func isolatedPlanner(t *testing.T, n int) planners.Planner {
	t.Helper()
	al, err := core.NewAllocator(agreement.NewSparseBuilder(n).Build(), nil, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return al
}

func reciprocalPlanner(t *testing.T, share float64) planners.Planner {
	t.Helper()
	s, err := agreement.SparseOf([][]float64{
		{0, share},
		{share, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	al, err := core.NewAllocator(s, nil, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return al
}

func TestRunBasicLifecycle(t *testing.T) {
	// Two sequential jobs on one org with capacity 1: the second queues
	// until the first releases.
	res, err := Run(Config{
		Planner:  isolatedPlanner(t, 1),
		Capacity: []float64{1},
		Horizon:  100,
		Jobs: []Job{
			{Owner: 0, Arrival: 0, Duration: 10, Amount: 1},
			{Owner: 0, Arrival: 1, Duration: 5, Amount: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished != 2 || res.Unfinished != 0 {
		t.Fatalf("finished %d, unfinished %d", res.Finished, res.Unfinished)
	}
	// Job 2 waited from t=1 to t=10.
	if got := res.QueueWait.Max(); got < 8.9 || got > 9.1 {
		t.Errorf("max queue wait %g, want 9", got)
	}
}

func TestReciprocalSharingHelpsAntiCorrelatedLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	horizon := 10000.0
	jobs := Workload(rng, horizon, 300, 30, 1)
	capacity := []float64{2, 2}

	alone, err := Run(Config{
		Planner:  isolatedPlanner(t, 2),
		Capacity: capacity,
		Horizon:  horizon * 2,
		Jobs:     jobs,
	})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := Run(Config{
		Planner:  reciprocalPlanner(t, 0.5),
		Capacity: capacity,
		Horizon:  horizon * 2,
		Jobs:     jobs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if shared.Borrowed == 0 {
		t.Fatal("no capacity was borrowed under the agreements")
	}
	if shared.QueueWait.Mean() >= alone.QueueWait.Mean() {
		t.Errorf("sharing mean queue wait %g should beat isolation %g",
			shared.QueueWait.Mean(), alone.QueueWait.Mean())
	}
}

func TestIsolationNeverBorrows(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	jobs := Workload(rng, 1000, 50, 10, 1)
	res, err := Run(Config{
		Planner:  isolatedPlanner(t, 2),
		Capacity: []float64{3, 3},
		Horizon:  5000,
		Jobs:     jobs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Borrowed != 0 {
		t.Errorf("isolated planner borrowed %g capacity-seconds", res.Borrowed)
	}
}

func TestDeterministic(t *testing.T) {
	jobs := Workload(rand.New(rand.NewSource(7)), 500, 40, 8, 1)
	run := func() *Result {
		res, err := Run(Config{
			Planner:  reciprocalPlanner(t, 0.3),
			Capacity: []float64{2, 2},
			Horizon:  2000,
			Jobs:     jobs,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Finished != b.Finished || a.QueueWait.Mean() != b.QueueWait.Mean() {
		t.Error("non-deterministic batch run")
	}
}

func TestUnfinishedCounted(t *testing.T) {
	res, err := Run(Config{
		Planner:  isolatedPlanner(t, 1),
		Capacity: []float64{1},
		Horizon:  10,
		Jobs: []Job{
			{Owner: 0, Arrival: 0, Duration: 100, Amount: 1}, // runs past horizon
			{Owner: 0, Arrival: 1, Duration: 1, Amount: 1},   // still queued
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished != 0 || res.Unfinished != 2 {
		t.Errorf("finished %d, unfinished %d; want 0, 2", res.Finished, res.Unfinished)
	}
}

func TestValidation(t *testing.T) {
	pl := isolatedPlanner(t, 1)
	bad := []Config{
		{Planner: pl, Capacity: nil, Horizon: 10},
		{Planner: pl, Capacity: []float64{1}, Horizon: 0},
		{Planner: nil, Capacity: []float64{1}, Horizon: 10},
		{Planner: pl, Capacity: []float64{1}, Horizon: 10,
			Jobs: []Job{{Owner: 5, Arrival: 0, Duration: 1, Amount: 1}}},
		{Planner: pl, Capacity: []float64{1}, Horizon: 10,
			Jobs: []Job{{Owner: 0, Arrival: -1, Duration: 1, Amount: 1}}},
		{Planner: pl, Capacity: []float64{1}, Horizon: 10,
			Jobs: []Job{{Owner: 0, Arrival: 0, Duration: 0, Amount: 1}}},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestOversizedJobNeverAdmitted(t *testing.T) {
	// A job larger than total capacity blocks its queue but others on the
	// same org behind it also wait (FIFO); the run terminates cleanly.
	res, err := Run(Config{
		Planner:  isolatedPlanner(t, 1),
		Capacity: []float64{1},
		Horizon:  100,
		Jobs: []Job{
			{Owner: 0, Arrival: 0, Duration: 5, Amount: 10},
			{Owner: 0, Arrival: 1, Duration: 5, Amount: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished != 0 || res.Unfinished != 2 {
		t.Errorf("finished %d, unfinished %d; want 0, 2", res.Finished, res.Unfinished)
	}
}
