package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
)

// A workload is one fixed-size served system plus the traffic driven at
// it. Sizes never scale with the machine: the same four systems are built
// on every box so numbers from two commits compare.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string

	shards int         // 0 = one unsharded grm.Server
	cfg    core.Config // zero value = what cmd/grmd builds
	tree   bool        // attach the served node to a root grm.Server

	// population generates the registrations and agreements installed at
	// set-up, from systemSeed. principals is 0 for the full size and
	// smokePrincipals under -smoke, for the two workloads whose set-up is
	// too long for the tier-1 test; shardOf is the served node's routing
	// rule, so a sharded workload can put connection i on shard i.
	population      func(rng *rand.Rand, principals int, shardOf func(string) int) *population
	smokePrincipals int

	// amount draws one locally servable request size; oversize draws one
	// that exceeds everything the requester can reach locally (tree only).
	amount   func(rng *rand.Rand) float64
	oversize func(rng *rand.Rand) float64
	// churn drives share → alloc → release → revoke → report per lane
	// instead of allocate → release.
	churn bool

	// recoverPairs is the fixed length of the recovery pass: that many
	// allocate+release pairs are journaled before the restart. setups is
	// how many times set-up is timed for its minimum (many for a 6 ms
	// set-up, few for a 0.4 s one), restarts how many times the ungated
	// restart is timed for its median.
	recoverPairs int
	setups       int
	restarts     int
	// openRate is the open-loop offered load in wire operations per second
	// and limitMS the latency limit, both frozen from the first accepted
	// -aa run (about a quarter of the closed-loop ops_per_s; five times the
	// open-loop p50). Never recomputed at run time.
	openRate float64
	limitMS  float64
}

// arrivalRate is the open-loop arrival rate: openRate over the wire
// operations one arrival issues (a churn cycle is five, allocate→release
// two).
func (w *workload) arrivalRate() float64 {
	if w.churn {
		return w.openRate / 5
	}
	return w.openRate / 2
}

// population is the set-up input: what to register and which agreements
// to install, in order. The servers see only these requests.
type population struct {
	names  []string
	caps   []float64
	shares []shareOp // indexes into names
	// live are the two principals the LRM connections register as; the
	// other principals exist only in the server's books. neighbor[i] is a
	// principal in live[i]'s agreement component (and so on its shard),
	// the target of the traced pass's share probe.
	live, neighbor [2]int
}

type shareOp struct {
	from, to int
	fraction float64 // relative when > 0
	quantity float64 // absolute otherwise
}

func (p *population) add(name string, capacity float64) int {
	p.names = append(p.names, name)
	p.caps = append(p.caps, capacity)
	return len(p.names) - 1
}

// jitter returns x scaled by a drawn factor in [1-spread, 1+spread), so
// capacities and share fractions are uneven without changing the shape.
func jitter(rng *rand.Rand, x, spread float64) float64 {
	return x * (1 - spread + 2*spread*rng.Float64())
}

func uniform(lo, hi float64) func(*rand.Rand) float64 {
	return func(rng *rand.Rand) float64 { return lo + (hi-lo)*rng.Float64() }
}

// blocks builds nblocks chains of eight principals: a relative share from
// each member to the next, closed by one absolute share from the last back
// to the first — the block shape cmd/loadgen and the sparse allocator
// benches use.
func blocks(rng *rand.Rand, prefix string, nblocks int, capacity float64) *population {
	const size = 8
	p := &population{}
	for b := 0; b < nblocks; b++ {
		first := len(p.names)
		for j := 0; j < size; j++ {
			p.add(fmt.Sprintf("%s%d/p%d", prefix, b, j), jitter(rng, capacity, 0.1))
		}
		for j := 0; j+1 < size; j++ {
			p.shares = append(p.shares, shareOp{from: first + j, to: first + j + 1, fraction: 0.1 + 0.3*rng.Float64()})
		}
		p.shares = append(p.shares, shareOp{from: first + size - 1, to: first, quantity: 1 + 3*rng.Float64()})
	}
	return p
}

var workloads = []*workload{
	{
		name: "isp10",
		why:  "paper section 4 as served: 10 principals, complete graph, 25us plans, so transport, the admission pipeline and the WAL carry the cost and the LP almost none",
		population: func(rng *rand.Rand, n int, _ func(string) int) *population {
			if n == 0 {
				n = 10
			}
			p := &population{live: [2]int{0, 1}, neighbor: [2]int{1, 0}}
			for i := 0; i < n; i++ {
				p.add(fmt.Sprintf("isp%d", i), jitter(rng, 100, 0.1))
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i != j {
						p.shares = append(p.shares, shareOp{from: i, to: j, fraction: jitter(rng, 0.1, 0.05)})
					}
				}
			}
			return p
		},
		// The exact closure of the complete graph costs 0.17 s on ten
		// principals and a thousandth of that on seven.
		smokePrincipals: 7,
		amount:          uniform(1, 5),
		recoverPairs:    20000,
		setups:          9,
		restarts:        5,
		openRate:        5000,
		limitMS:         2,
	},
	{
		name: "ring64",
		why:  "loop taxonomy: one 64-node component, 1.4ms of simplex per plan, so lp and core are most of a request and the wire and WAL are noise",
		population: func(rng *rand.Rand, _ int, _ func(string) int) *population {
			const n = 64
			p := &population{live: [2]int{0, n / 2}, neighbor: [2]int{1, n/2 + 1}}
			for i := 0; i < n; i++ {
				p.add(fmt.Sprintf("ring%d", i), jitter(rng, 100, 0.1))
			}
			for i := 0; i < n; i++ {
				p.shares = append(p.shares,
					shareOp{from: i, to: (i + 1) % n, fraction: jitter(rng, 0.4, 0.05)},
					shareOp{from: i, to: (i + n - 1) % n, fraction: jitter(rng, 0.4, 0.05)})
			}
			return p
		},
		amount:       uniform(5, 15),
		recoverPairs: 1000,
		setups:       100,
		restarts:     20,
		openRate:     160,
		limitMS:      15,
	},
	{
		name: "churn128",
		why:  "writes beside reads: every share patches the planner and every revoke rebuilds it over 128 principals in small components, where one enforcement path must win",
		population: func(rng *rand.Rand, _ int, _ func(string) int) *population {
			p := blocks(rng, "c", 16, 50)
			p.live, p.neighbor = [2]int{0, 8 * 8}, [2]int{1, 8*8 + 1}
			return p
		},
		amount:       uniform(0.5, 2.5),
		churn:        true,
		recoverPairs: 250,
		setups:       100,
		restarts:     20,
		openRate:     90,
		limitMS:      60,
	},
	{
		name:   "tree_sharded",
		why:    "two-level tree, two ComponentLP shards, 4096 principals: routing, per-shard WAL, the borrow round trip, population-sized costs; a borrow waits out the LRM's local requests, else 1 in 4 is refused",
		shards: 2,
		cfg:    core.Config{ComponentLP: true},
		tree:   true,
		population: func(rng *rand.Rand, principals int, shardOf func(string) int) *population {
			if principals == 0 {
				principals = 4096
			}
			p := blocks(rng, "b", principals/8, 5)
			// One connection per shard, each a subtree of its own joined to
			// the first block on its shard by a share from every member.
			for shard := 0; shard < 2; shard++ {
				name := ""
				for i := 0; name == ""; i++ {
					if cand := fmt.Sprintf("lrm%d/x", i); shardOf(cand) == shard {
						name = cand
					}
				}
				block := 0
				for shardOf(p.names[block*8]) != shard {
					block++
				}
				p.live[shard], p.neighbor[shard] = p.add(name, jitter(rng, 20, 0.1)), block*8
				for j := 0; j < 8; j++ {
					p.shares = append(p.shares, shareOp{from: block*8 + j, to: p.live[shard], fraction: jitter(rng, 0.3, 0.05)})
				}
			}
			return p
		},
		smokePrincipals: 256,
		amount:          uniform(0.5, 2),
		oversize:        uniform(60, 80),
		recoverPairs:    1000,
		setups:          9,
		restarts:        5,
		openRate:        2600,
		limitMS:         4,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
