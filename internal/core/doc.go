// Package core implements the paper's agreement-enforcement engine
// (Section 3): given the principal-level view of one resource type —
// capacities V, and the relative and absolute agreement matrices S and A
// in CSR form (agreement.SparseMatrix, what NewAllocator, the one
// constructor, takes) — it answers the two scheduling questions posed in
// the paper:
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
// # One plan, one form
//
// A plan builds the requester's LP, every number included, in one pass into
// a workspace it reuses from plan to plan, solves it there and keeps
// nothing per requester. It is computed once, over that LP's variables and
// rows and nothing else — under Config.ComponentLP the requester's
// agreement component, in the full formulation everyone — and PlanPairs
// appends its non-zero (source, take) pairs and θ to slices the caller
// owns, costing the component and allocating nothing in the steady state.
// The GRM, the simulator, package planners and the oracles all take a plan
// in that form. Plan and PlanBatch, which scatter it into a dense
// Allocation, are left only as compile shims for the frozen layer benchmark
// in bench/.
//
// # What a write costs
//
// An Allocator has one owner, which writes it under the lock it plans
// under: PatchShare, PatchAgreement and Grow change it in place (see
// mutate.go). A write costs what moved: values are written over, a column
// whose pattern flips is laid out anew in one arena, and Grow appends. No
// plan state outlives its plan, so a write invalidates nothing: the next
// plan builds its LP from what the write left, names on demand, nothing
// population-sized under ComponentLP.
//
// # Library
//
// The paper's Section 3.2 extensions (multi-resource, coupled and
// multi-view requests, multi-grid hierarchies), the baselines it compares
// against (Figure 13's endpoint-proportional scheme, a greedy one) and a
// lease ledger live in package planners, built on this package's exported
// API. Nothing served imports them.
package core
