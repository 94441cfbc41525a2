package core

import (
	"errors"
	"math"
	"testing"
)

// commitTakes applies the GRM's commit rule to cur — the rule PlanBatch
// chains with, so sequential Plan calls threaded through it must match
// the batch bit for bit.
func commitTakes(cur []float64, take []float64) {
	for i, t := range take {
		cur[i] -= t
		if cur[i] < 0 {
			cur[i] = 0
		}
	}
}

func batchScenario(t *testing.T) (*Allocator, []float64) {
	t.Helper()
	s, v := benchScenario(8)
	al, err := NewAllocator(sparse(s), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return al, v
}

func TestPlanBatchMatchesSequentialPlans(t *testing.T) {
	al, v := batchScenario(t)
	reqs := []BatchRequest{
		{Requester: 0, Amount: 20},
		{Requester: 3, Amount: 45},
		{Requester: 0, Amount: 0},
		{Requester: 5, Amount: 12.5},
		{Requester: 2, Amount: 60},
		{Requester: 7, Amount: 33},
		{Requester: 1, Amount: 5},
		{Requester: 4, Amount: 80},
	}
	got := al.PlanBatch(v, reqs)
	if len(got) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(got), len(reqs))
	}

	cur := append([]float64(nil), v...)
	for r, req := range reqs {
		want, err := al.Plan(cur, req.Requester, req.Amount)
		if err != nil {
			t.Fatalf("request %d: sequential Plan failed: %v", r, err)
		}
		res := got[r]
		if res.Err != nil {
			t.Fatalf("request %d: batch errored (%v), sequential succeeded", r, res.Err)
		}
		for i := range want.Take {
			if res.Alloc.Take[i] != want.Take[i] {
				t.Errorf("request %d: Take[%d] = %v, sequential %v (diff %g)",
					r, i, res.Alloc.Take[i], want.Take[i], res.Alloc.Take[i]-want.Take[i])
			}
			if res.Alloc.NewV[i] != want.NewV[i] {
				t.Errorf("request %d: NewV[%d] = %v, sequential %v", r, i, res.Alloc.NewV[i], want.NewV[i])
			}
		}
		if res.Alloc.Theta != want.Theta {
			t.Errorf("request %d: Theta = %v, sequential %v", r, res.Alloc.Theta, want.Theta)
		}
		commitTakes(cur, want.Take)
	}
}

func TestPlanBatchErrorsDoNotConsume(t *testing.T) {
	al, v := batchScenario(t)
	var total float64
	for _, x := range v {
		total += x
	}
	reqs := []BatchRequest{
		{Requester: 1, Amount: 10},
		{Requester: 2, Amount: 2 * total}, // beyond everyone's capacity
		{Requester: 3, Amount: -1},        // invalid
		{Requester: 4, Amount: 10},
	}
	got := al.PlanBatch(v, reqs)
	if got[0].Err != nil || got[3].Err != nil {
		t.Fatalf("valid requests failed: %v, %v", got[0].Err, got[3].Err)
	}
	if !errors.Is(got[1].Err, ErrInsufficient) {
		t.Errorf("oversized request: err = %v, want ErrInsufficient", got[1].Err)
	}
	if got[2].Err == nil || got[2].Alloc != nil {
		t.Errorf("negative request: result = %+v, want error", got[2])
	}

	// The failed requests must not have moved availability: request 4
	// planned against v minus only request 1's takes.
	cur := append([]float64(nil), v...)
	first, err := al.Plan(cur, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	commitTakes(cur, first.Take)
	want, err := al.Plan(cur, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Take {
		if got[3].Alloc.Take[i] != want.Take[i] {
			t.Fatalf("request after failures diverged at Take[%d]: %v vs %v",
				i, got[3].Alloc.Take[i], want.Take[i])
		}
	}
}

func TestPlanBatchEmptyAndZero(t *testing.T) {
	al, v := batchScenario(t)
	if got := al.PlanBatch(v, nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
	got := al.PlanBatch(v, []BatchRequest{{Requester: 0, Amount: 0}})
	if got[0].Err != nil {
		t.Fatal(got[0].Err)
	}
	for i, take := range got[0].Alloc.Take {
		if take != 0 || got[0].Alloc.NewV[i] != v[i] {
			t.Fatalf("zero request moved resources: take[%d]=%g newV=%g", i, take, got[0].Alloc.NewV[i])
		}
	}
}

func TestPlanBatchTakesSumToAmount(t *testing.T) {
	al, v := batchScenario(t)
	reqs := []BatchRequest{{0, 30}, {1, 25}, {2, 40}}
	for r, res := range al.PlanBatch(v, reqs) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		var sum float64
		for _, take := range res.Alloc.Take {
			sum += take
		}
		if math.Abs(sum-reqs[r].Amount) > 1e-9 {
			t.Errorf("request %d: takes sum to %v, want %v", r, sum, reqs[r].Amount)
		}
	}
}
