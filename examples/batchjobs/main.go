// Batch jobs: the paper's introductory scenario — two organizations with
// reciprocal sharing agreements lending each other compute capacity.
//
// Org "east" is busy in the first half of the window and org "west" in
// the second. Each job acquires CPU units through the agreement-enforcing
// ledger, holds them for its duration, and releases them. The program
// compares isolation against reciprocal 30% agreements.
//
// Run with: go run ./examples/batchjobs
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/agreement"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/planners"
)

func main() {
	const (
		horizon      = 20000.0
		jobsPerOrg   = 400
		meanDuration = 40.0
		capacity     = 2.0
	)
	jobs := batch.Workload(rand.New(rand.NewSource(1)), horizon, jobsPerOrg, meanDuration, 0.5)

	isolated := planner([][]float64{{0, 0}, {0, 0}})
	reciprocal := planner([][]float64{{0, 0.3}, {0.3, 0}})

	fmt.Printf("%d half-unit jobs per org, mean duration %.0f s, capacity %.0f each\n\n",
		jobsPerOrg, meanDuration, capacity)
	for _, tc := range []struct {
		label   string
		planner planners.Planner
	}{
		{"isolation (no agreements)", isolated},
		{"reciprocal 30% agreements", reciprocal},
	} {
		res, err := batch.Run(batch.Config{
			Planner:  tc.planner,
			Capacity: []float64{capacity, capacity},
			Horizon:  2 * horizon,
			Jobs:     jobs,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:\n", tc.label)
		fmt.Printf("  mean queue wait: %8.1f s (east %.1f s, west %.1f s)\n",
			res.QueueWait.Mean(), res.PerOwner[0].Mean(), res.PerOwner[1].Mean())
		fmt.Printf("  worst queue wait: %7.1f s\n", res.QueueWait.Max())
		fmt.Printf("  borrowed: %.0f capacity-seconds; finished %d, unfinished %d\n\n",
			res.Borrowed, res.Finished, res.Unfinished)
	}
	fmt.Println("anti-correlated rush hours mean each org's idle capacity covers")
	fmt.Println("the other's peak — the same effect as the web-proxy case study.")
}

func planner(dense [][]float64) planners.Planner {
	s, err := agreement.SparseOf(dense)
	if err != nil {
		log.Fatal(err)
	}
	al, err := core.NewAllocator(s, nil, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	return al
}
