// Cluster: the GRM/LRM resource management architecture of Section 3 over
// real TCP connections, including a two-level GRM federation.
//
// The program starts a parent GRM and two child GRMs on loopback ports.
// Each child cluster registers local LRMs with resources; the children
// attach to the parent as aggregated principals and wire an inter-cluster
// agreement. An LRM in the poor cluster then allocates more than its
// cluster owns, transparently borrowing from the sibling cluster through
// the parent.
//
// Run with: go run ./examples/cluster
package main

import (
	"fmt"
	"log"
	"net"

	"repro/internal/core"
	"repro/internal/grm"
)

func main() {
	parent, parentAddr := startGRM("parent")
	defer parent.Close()
	east, eastAddr := startGRM("east")
	defer east.Close()
	west, westAddr := startGRM("west")
	defer west.Close()

	// Local LRMs: east is poor, west is rich.
	eastNode, err := grm.Dial(eastAddr, "east-node0", 10)
	check(err)
	defer eastNode.Close()
	westNode0, err := grm.Dial(westAddr, "west-node0", 200)
	check(err)
	defer westNode0.Close()
	westNode1, err := grm.Dial(westAddr, "west-node1", 300)
	check(err)
	defer westNode1.Close()

	// Intra-cluster agreement in the west: node1 shares 50% with node0.
	_, err = westNode1.ShareRelative(westNode0.Principal(), 0.5)
	check(err)

	// Attach both clusters to the parent and let west share 40% of its
	// aggregate with east.
	check(east.AttachParent(parentAddr, "cluster-east"))
	defer east.DetachParent()
	check(west.AttachParent(parentAddr, "cluster-west"))
	defer west.DetachParent()
	_, err = west.Parent().ShareRelative(east.Parent().Principal(), 0.4)
	check(err)

	fmt.Println("two-level federation up:")
	fmt.Printf("  parent GRM at %s\n", parentAddr)
	fmt.Printf("  east (10 units local) and west (500 units local)\n")
	fmt.Printf("  west shares 40%% of its aggregate with east\n\n")

	// A purely local allocation in the west.
	reply, err := westNode0.Allocate(250)
	check(err)
	fmt.Printf("west-node0 allocates 250 locally: takes %v (theta %.1f)\n", round(reply.Dense(2)), reply.Theta)

	// East wants 100: 10 local + 90 borrowed through the parent.
	reply, err = eastNode.Allocate(100)
	check(err)
	fmt.Printf("east-node0 allocates 100 (only 10 local): takes %v — the rest came through the federation\n",
		round(reply.Dense(1)))

	// Releasing the lease repays the borrow at the parent: the sibling
	// cluster's capacity comes back.
	before, _, err := east.Parent().Capacities()
	check(err)
	check(eastNode.Release(reply.Lease))
	after, _, err := east.Parent().Capacities()
	check(err)
	fmt.Printf("east-node0 releases its lease: parent availability %v -> %v (borrow repaid)\n",
		round(before), round(after))

	// Beyond the inter-cluster agreement, the federation refuses.
	check(eastNode.Report(10))
	check(east.ReportUpstream())
	if _, err := eastNode.Allocate(10000); err != nil {
		fmt.Printf("east-node0 allocating 10000: refused as expected (%v)\n", err)
	}
}

func startGRM(name string) (*grm.Server, string) {
	s := grm.NewServer(core.Config{}, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	go s.Serve(l)
	_ = name
	return s, l.Addr().String()
}

func round(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int(x*100+0.5)) / 100
	}
	return out
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
