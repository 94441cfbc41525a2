package modeltest

import (
	"fmt"

	"repro/internal/agreement"
	"repro/internal/num"
)

// Approx computes Σ_{k=1..maxLen} S^k by dense matrix powers — the
// matrix-power approximation of T^(maxLen). It counts walks rather than
// simple paths, so on cyclic graphs it overcounts (it is an upper bound on
// RefTransitive); on DAGs the two are identical. Levels below 1 mean 1 and
// levels past n-1 mean n-1, as the served closure clamps them. Cost is
// O(maxLen · n³).
//
// Nothing serves it: it is DESIGN.md §7's ablation reference and the
// MutTransitive bug model, a closure that forgot the cycle-free rule.
func Approx(s [][]float64, maxLen int) [][]float64 {
	n := len(s)
	maxLen = min(max(maxLen, 1), max(n-1, 1))
	sum, power, next := zeroMatrix(n), zeroMatrix(n), zeroMatrix(n)
	for i := range power {
		copy(power[i], s[i])
	}
	add(sum, power)
	for k := 2; k <= maxLen; k++ {
		matmulInto(next, power, s) // double buffer: reads power, writes next
		power, next = next, power
		add(sum, power)
	}
	return sum
}

// Cap applies the overdraft rule of Section 3.2: K_ij = min(T_ij, 1). The
// input is not modified.
func Cap(t [][]float64) [][]float64 {
	out := zeroMatrix(len(t))
	for i, row := range t {
		for j, v := range row {
			out[i][j] = min(v, 1)
		}
	}
	return out
}

// Capacities is the dense capacity formula of Section 3.2,
// C_i = V_i + Σ_{k≠i} U_ki with U_ki = min(V_k·K_ki + A_ki, V_k), summed
// over k in ascending order: the order the served capacity sums keep, so
// they match it bit for bit. A may be nil.
func Capacities(v []float64, k, a [][]float64) []float64 {
	n := len(v)
	if len(k) != n || (a != nil && len(a) != n) {
		panic(fmt.Sprintf("modeltest: Capacities: inconsistent sizes V=%d K=%d A=%d", n, len(k), len(a)))
	}
	out := make([]float64, n)
	for i := range out {
		c := v[i]
		for src := 0; src < n; src++ {
			if src == i {
				continue
			}
			u := v[src] * k[src][i]
			if a != nil {
				u += a[src][i]
			}
			if u > v[src] {
				u = v[src]
			}
			c += u
		}
		out[i] = c
	}
	return out
}

func add(dst, src [][]float64) {
	for i := range dst {
		for j := range dst[i] {
			dst[i][j] += src[i][j]
		}
	}
}

// matmulInto computes out = a·b row by row, ascending k and then j within
// each row. out must not alias a or b.
func matmulInto(out, a, b [][]float64) {
	for i, row := range out {
		clear(row)
		for k, aik := range a[i] {
			if num.IsZero(aik) {
				continue
			}
			for j, bkj := range b[k] {
				row[j] += aik * bkj
			}
		}
	}
}

// sparse imports a generated graph's dense matrix for the planners, which
// take only CSR input; a nil matrix stays nil.
func sparse(m [][]float64) *agreement.SparseMatrix {
	out, err := agreement.SparseOf(m)
	if err != nil {
		panic(err) // generated matrices are square
	}
	return out
}
