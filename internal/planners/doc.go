// Package planners holds the paper's library around the θ-minimizing
// allocator: the Section 3.2 extensions and the schemes the evaluation
// compares against. Everything here is built on package core's exported
// API — an Allocator's plans, capacities, flow rows and agreement entries
// — and keeps no closure, capacity or flow code of its own.
//
//   - Planner is the pair-form interface the simulator, the batch runner
//     and Ledger plan through: PlanPairs and Capacity, exactly the methods
//     *core.Allocator serves the GRM with, so it satisfies it as it is.
//   - Proportional is the "endpoint enforcement" baseline of Figure 13: it
//     splits a request in proportion to direct agreement quantities,
//     ignoring availability. Greedy is availability-aware but myopic.
//   - Multi plans a request for several resource types, one LP each;
//     Coupled binds types into a bundle allocated from one principal;
//     MultiView couples several agreement views of one physical resource in
//     a single LP; Hierarchy refines a group-level LP with per-group LPs
//     (multi-grid).
//   - Ledger adds an acquire/release lifecycle on top of any Planner.
//
// Nothing served imports this package: the GRM plans with
// core.Allocator.PlanPairs against its own books, and `make lint` fails if
// grm, grmd or lrmd come to depend on it. So code here may work densely
// inside a plan — an n×n LP is fine for a figure or an example — without
// counting against the serving code's line ratchet or allocation pins; what
// it hands back is pairs.
package planners
