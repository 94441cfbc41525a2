// Command sharingcheck runs the model-based testing harness from the
// command line: a seeded campaign of random agreement graphs checked
// against the paper's equations (internal/modeltest), followed by
// deterministic protocol-level cluster runs that audit the GRM's books
// after every operation.
//
// Usage:
//
//	sharingcheck                          # default campaign
//	sharingcheck -seed 7 -iters 2000      # longer sweep from another seed
//	sharingcheck -seed 41 -iters 1        # replay one failing graph
//	sharingcheck -cluster-steps 500       # deeper protocol schedules
//	sharingcheck -out failure.json        # write a replayable artifact
//	sharingcheck -mutations               # prove the suite catches bugs
//
// On failure it prints the violated property, the replay command, the
// generated graph and its shrunk minimal form, optionally writes them as
// JSON (for CI artifacts), and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/modeltest"
)

// artifact is the JSON document written to -out on failure — everything
// needed to reproduce the run without the original logs.
type artifact struct {
	Kind    string                `json:"kind"` // "graph" or "cluster"
	Replay  string                `json:"replay"`
	Graph   *modeltest.Failure    `json:"graph,omitempty"`
	Cluster *modeltest.RunFailure `json:"cluster,omitempty"`
}

func writeArtifact(path string, a *artifact) {
	if path == "" {
		return
	}
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "sharingcheck: marshal artifact: %v\n", err)
		return
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "sharingcheck: write %s: %v\n", path, err)
		return
	}
	fmt.Fprintf(os.Stderr, "sharingcheck: failure artifact written to %s\n", path)
}

func main() {
	var (
		seed         = flag.Int64("seed", 1, "base seed for the graph campaign (case i uses seed+i)")
		iters        = flag.Int("iters", 500, "number of random agreement graphs to check")
		clusterSeed  = flag.Int64("cluster-seed", 1, "base seed for the cluster schedules")
		clusterRuns  = flag.Int("cluster-runs", 3, "number of cluster schedules to run (0 skips)")
		clusterSteps = flag.Int("cluster-steps", 150, "operations per cluster schedule")
		out          = flag.String("out", "", "write a JSON failure artifact to this path")
		mutations    = flag.Bool("mutations", false, "also run the mutation smoke test (the suite must catch each seeded bug)")
	)
	flag.Parse()

	start := time.Now()
	fmt.Printf("sharingcheck: graph campaign: %d graphs from seed %d\n", *iters, *seed)
	rep := modeltest.Run(modeltest.Options{Seed: *seed, Iters: *iters})
	if f := rep.Failure; f != nil {
		fmt.Fprintln(os.Stderr, f.Error())
		fmt.Fprintf(os.Stderr, "replay: go run ./cmd/sharingcheck -seed %d -iters 1\n", f.Seed)
		writeArtifact(*out, &artifact{
			Kind:   "graph",
			Replay: fmt.Sprintf("go run ./cmd/sharingcheck -seed %d -iters 1", f.Seed),
			Graph:  f,
		})
		os.Exit(1)
	}
	fmt.Printf("sharingcheck: graph campaign clean (%d graphs, %v)\n", rep.Cases, time.Since(start).Round(time.Millisecond))

	for i := 0; i < *clusterRuns; i++ {
		s := *clusterSeed + int64(i)
		crep, err := modeltest.RunCluster(modeltest.ClusterOptions{Seed: s, Steps: *clusterSteps})
		if err != nil {
			fmt.Fprintf(os.Stderr, "sharingcheck: cluster run (seed %d): %v\n", s, err)
			os.Exit(1)
		}
		if f := crep.Failure; f != nil {
			fmt.Fprintln(os.Stderr, f.Error())
			for _, line := range crep.Trace[max(0, len(crep.Trace)-10):] {
				fmt.Fprintln(os.Stderr, "  "+line)
			}
			replay := fmt.Sprintf("go run ./cmd/sharingcheck -iters 0 -cluster-seed %d -cluster-steps %d", f.Seed, *clusterSteps)
			fmt.Fprintf(os.Stderr, "replay: %s\n", replay)
			writeArtifact(*out, &artifact{Kind: "cluster", Replay: replay, Cluster: f})
			os.Exit(1)
		}
		fmt.Printf("sharingcheck: cluster schedule seed %d clean (%d steps)\n", s, *clusterSteps)
	}

	if *mutations {
		for _, mut := range []modeltest.Mutation{modeltest.MutTransitive, modeltest.MutLP, modeltest.MutCore} {
			mrep := modeltest.Run(modeltest.Options{Seed: *seed, Iters: 60, Mutation: mut, NoShrink: true})
			if mrep.Failure == nil {
				fmt.Fprintf(os.Stderr, "sharingcheck: mutation %v survived %d graphs — the property suite is blind to it\n", mut, 60)
				os.Exit(1)
			}
			fmt.Printf("sharingcheck: mutation %v caught by %q after %d cases\n", mut, mrep.Failure.Property, mrep.Cases)
		}
	}

	fmt.Printf("sharingcheck: all checks passed in %v\n", time.Since(start).Round(time.Millisecond))
}
