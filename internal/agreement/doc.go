// Package agreement implements the paper's expression layer for resource
// sharing agreements: tickets and currencies (Section 2 of "Expressing and
// Enforcing Distributed Resource Sharing Agreements", SC 2000).
//
// # Concepts
//
// Resources (CPU seconds, disk bytes, ...) are owned by principals and are
// represented by absolute tickets that fund the owner's default currency.
// An agreement between principals is a ticket issued by one currency that
// backs another:
//
//   - an absolute ticket carries a fixed quantity ("3 TB of disk"),
//   - a relative ticket carries a face value denominated in the issuing
//     currency; its real value is value(issuer) * face / faceValue(issuer)
//     and therefore fluctuates with the issuer's fortunes.
//
// Currencies may be inflated or deflated (changing faceValue rescales all
// outstanding relative tickets), and virtual currencies can be interposed
// to decouple one subset of agreements from another (Example 2, Figure 2
// of the paper).
//
// # Valuation
//
// Currency values satisfy the linear fixed point
//
//	value(c) = Σ absolute backing + Σ share·value(issuer)
//
// which package agreement solves directly (Gaussian elimination; its tests
// check it against Gauss–Seidel iteration); mutual agreements create
// genuine cycles, so a topological pass is not sufficient. Valuation is computed per resource
// type: relative tickets propagate every type proportionally, absolute
// tickets carry a single type.
//
// # Export to the enforcement engine
//
// SparseMatrices() collapses the currency graph (contracting virtual
// currencies) into the paper's per-principal model: capacities V, the
// relative agreement matrix S (S[i][j] = fraction of i's resources shared
// with j) and the absolute agreement matrix A, both in CSR form
// (SparseMatrix). Granting agreements (where the grantor gives up the
// resource) move capacity between principals before export. SparseOf is
// the one import of a dense matrix, for callers that write one literally.
package agreement
