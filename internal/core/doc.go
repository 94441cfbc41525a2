// Package core implements the paper's agreement-enforcement engine
// (Section 3): given the principal-level view of one resource type —
// capacities V, relative agreement matrix S, absolute agreement matrix A —
// it answers the two scheduling questions posed in the paper:
//
//  1. Does the requesting principal have enough resources available,
//     directly or transitively (capacity C_A)?
//  2. From which actual resources should the requested amount be taken?
//
// The second question is answered by a linear program that minimizes
// θ = max_i (C_i − C'_i): the allocation that perturbs every principal's
// future resource availability the least (equations 1–6 of the paper).
//
// # Formulations
//
// The paper's LP has n²+n+1 variables (all post-allocation flows I'_ij are
// variables). Because I'_ij = V'_i·T_ij is linear in V'_i, the formulation
// here substitutes the flows away, leaving n+1 variables (V'_0..V'_{n−1},
// θ). The printed variable set is not served: it is a reference the tests
// build (planPrinted in faithful_test.go) to check that both produce the
// same optimum, and an ablation bench.
//
// One deliberate deviation from the paper's constraint list: the paper
// imposes both C'_A = C_A − x (eq. 3) and C_A − θ ≤ C'_A (eq. 6 for the
// requester), which together force θ ≥ x and make the objective
// insensitive to the choice of sources whenever x dominates. We therefore
// apply eq. 6 to the non-requesting principals only, which preserves the
// stated intent ("leave the system able to satisfy future requests
// independent of which principal makes them") and makes the optimum
// discriminating (TestKeepRequesterConstraint shows both optima). A small
// connectivity-weighted secondary term breaks ties deterministically.
//
// # One plan, two forms
//
// A plan is computed once, over the variables and rows of the requester's
// LP skeleton and nothing else — under Config.ComponentLP that is the
// requester's agreement component, in the full formulation everyone — and
// leaves in one of two forms. PlanPairs appends the non-zero (source, take)
// pairs and θ to slices the caller owns: what the GRM serves from, costing
// the component and allocating nothing in the steady state. Plan and
// PlanBatch scatter the same result into a dense Allocation, two vectors
// over the whole population, for the simulator, package planners, the
// oracles and the benchmark; they are exports, bit-identical to the pairs,
// not the served path.
//
// # What a write costs
//
// SetShare, SetAgreement and Grow derive an Allocator copy-on-write, and
// PatchShare and PatchAgreement patch one in place (see mutate.go); each
// drops the skeletons a flip reaches, and the next plan rebuilds its
// requester's. Both halves cost what moved: a patch writes over the values
// of rows and columns its receiver owns, replaced columns come out of one
// arena per mutation, a skeleton is built in one pass into one arena, names
// on demand, nothing population-sized under ComponentLP.
//
// # Library
//
// The paper's Section 3.2 extensions (multi-resource, coupled and
// multi-view requests, multi-grid hierarchies), the baselines it compares
// against (Figure 13's endpoint-proportional scheme, a greedy one) and a
// lease ledger live in package planners, built on this package's exported
// API. Nothing served imports them.
package core
