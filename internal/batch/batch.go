// Package batch simulates compute sharing between organizations — the
// paper's introductory scenario ("organization A can use 30% of B's
// network bandwidth, and in return B can use 20% of the CPU power of A's
// supercomputer"). Jobs arrive at each organization, acquire CPU capacity
// through the agreement-enforcing Ledger (waiting FIFO when capacity is
// short), hold it for their duration, and release it on completion.
//
// Unlike the web-proxy case study (package sim), where requests are
// serially processed work, batch jobs hold capacity concurrently — which
// is exactly the allocate/release lifecycle planners.Ledger provides.
package batch

import (
	"container/heap"
	"fmt"
	"math/rand"

	"repro/internal/metrics"
	"repro/internal/planners"
)

// Job is one unit of work: it needs Amount capacity units from its
// owner's community for Duration seconds.
type Job struct {
	Owner    int
	Arrival  float64
	Duration float64
	Amount   float64
}

// Config describes one batch simulation.
type Config struct {
	// Planner enforces the sharing agreements across organizations.
	Planner planners.Planner
	// Capacity is each organization's CPU capacity.
	Capacity []float64
	// Jobs is the workload, in any order (sorted internally).
	Jobs []Job
	// Horizon ends the simulation; jobs still queued or running then are
	// counted as unfinished.
	Horizon float64
}

// Result reports the outcome of a batch run.
type Result struct {
	// QueueWait accumulates each job's time from arrival to admission,
	// overall and per owner.
	QueueWait metrics.Welford
	PerOwner  []metrics.Welford
	// Finished and Unfinished count jobs by completion state.
	Finished   int
	Unfinished int
	// Borrowed sums capacity-seconds jobs consumed from other
	// organizations' resources.
	Borrowed float64
}

// Run executes the simulation.
func Run(cfg Config) (*Result, error) {
	if len(cfg.Capacity) == 0 {
		return nil, fmt.Errorf("batch: no organizations")
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("batch: horizon %g must be positive", cfg.Horizon)
	}
	if cfg.Planner == nil {
		return nil, fmt.Errorf("batch: nil planner (use core.NewAllocator, or a zero agreement matrix for isolation)")
	}
	ledger, err := planners.NewLedger(cfg.Planner, cfg.Capacity)
	if err != nil {
		return nil, err
	}
	n := len(cfg.Capacity)
	res := &Result{PerOwner: make([]metrics.Welford, n)}

	// Event queue: job arrivals and completions.
	events := &eventHeap{}
	heap.Init(events)
	for i, j := range cfg.Jobs {
		if j.Owner < 0 || j.Owner >= n {
			return nil, fmt.Errorf("batch: job %d owner %d out of range", i, j.Owner)
		}
		if j.Arrival < 0 || j.Duration <= 0 || j.Amount <= 0 {
			return nil, fmt.Errorf("batch: job %d has invalid arrival/duration/amount", i)
		}
		if j.Arrival < cfg.Horizon {
			heap.Push(events, batchEvent{t: j.Arrival, job: j, arrival: true})
		}
	}

	// Per-owner FIFO queues of jobs waiting for capacity.
	queues := make([][]Job, n)
	admit := func(t float64, j Job) bool {
		lease, err := ledger.Acquire(j.Owner, j.Amount)
		if err != nil {
			return false
		}
		res.QueueWait.Add(t - j.Arrival)
		res.PerOwner[j.Owner].Add(t - j.Arrival)
		for k, i := range lease.Sources {
			if i != j.Owner {
				res.Borrowed += lease.Takes[k] * j.Duration
			}
		}
		heap.Push(events, batchEvent{t: t + j.Duration, lease: lease.ID, arrival: false})
		return true
	}

	for events.Len() > 0 {
		ev := heap.Pop(events).(batchEvent)
		if ev.t >= cfg.Horizon {
			break
		}
		if ev.arrival {
			j := ev.job
			if len(queues[j.Owner]) == 0 && admit(ev.t, j) {
				continue
			}
			queues[j.Owner] = append(queues[j.Owner], j)
			continue
		}
		// Completion: release, then drain whoever can now run. A release
		// can unblock any owner, so sweep all queues round-robin until no
		// progress.
		if err := ledger.Release(ev.lease); err != nil {
			return nil, err
		}
		res.Finished++
		progress := true
		for progress {
			progress = false
			for o := 0; o < n; o++ {
				if len(queues[o]) == 0 {
					continue
				}
				if admit(ev.t, queues[o][0]) {
					queues[o] = queues[o][1:]
					progress = true
				}
			}
		}
	}
	res.Unfinished = ledger.Outstanding()
	for _, q := range queues {
		res.Unfinished += len(q)
	}
	return res, nil
}

type batchEvent struct {
	t       float64
	job     Job
	lease   int
	arrival bool
}

type eventHeap []batchEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	// Completions first so freed capacity admits simultaneous arrivals.
	return !h[i].arrival && h[j].arrival
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(batchEvent)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); ev := old[n-1]; *h = old[:n-1]; return ev }

// Workload generates anti-correlated Poisson job streams for two
// organizations: org 0 is busy in the window's first half, org 1 in the
// second — the "rush hours in different time zones" setting that makes
// reciprocal agreements pay off.
func Workload(rng *rand.Rand, horizon float64, jobsPerOrg int, meanDuration, amount float64) []Job {
	var jobs []Job
	for owner := 0; owner < 2; owner++ {
		lo, hi := 0.0, horizon/2
		if owner == 1 {
			lo, hi = horizon/2, horizon
		}
		for i := 0; i < jobsPerOrg; i++ {
			jobs = append(jobs, Job{
				Owner:    owner,
				Arrival:  lo + rng.Float64()*(hi-lo),
				Duration: rng.ExpFloat64() * meanDuration,
				Amount:   amount,
			})
		}
	}
	// ExpFloat64 can return 0; nudge durations positive.
	for i := range jobs {
		if jobs[i].Duration <= 0 {
			jobs[i].Duration = meanDuration / 100
		}
	}
	return jobs
}
