package transitive

import (
	"math/rand"
	"testing"

	"repro/internal/num"
)

// exactRecursive is the original serial recursive enumeration, kept here
// verbatim as the reference the parallel iterative implementation is
// pinned against — the two must agree bit for bit, not just within
// tolerance.
func exactRecursive(s [][]float64, maxLen int) [][]float64 {
	n := len(s)
	maxLen = clampLevel(maxLen, n)
	t := zeros(n)
	visited := make([]bool, n)

	var dfs func(src, cur int, depth int, product float64)
	dfs = func(src, cur, depth int, product float64) {
		if depth == maxLen {
			return
		}
		for next := 0; next < n; next++ {
			if visited[next] || num.IsZero(s[cur][next]) {
				continue
			}
			p := product * s[cur][next]
			t[src][next] += p
			visited[next] = true
			dfs(src, next, depth+1, p)
			visited[next] = false
		}
	}
	for src := 0; src < n; src++ {
		visited[src] = true
		dfs(src, src, 0, 1)
		visited[src] = false
	}
	return t
}

// workersT computes every row of T^(level) of a dense test literal on a
// pinned number of workers (sparseRows, unbudgeted) and scatters it dense.
func workersT(s [][]float64, level, workers int) [][]float64 {
	n, adj, vals := csrOf(s)
	t, _ := sparseRows(n, tableOf(adj, vals), level, workers, nil)
	return denseOf(n, &t)
}

// randomGraph builds an n-principal agreement matrix where each off-
// diagonal edge exists with probability density and carries a random
// fraction.
func randomGraph(rng *rand.Rand, n int, density float64) [][]float64 {
	s := make([][]float64, n)
	for i := range s {
		s[i] = make([]float64, n)
		for j := range s[i] {
			if i != j && rng.Float64() < density {
				s[i][j] = rng.Float64()
			}
		}
	}
	return s
}

func requireBitIdentical(t *testing.T, got, want [][]float64, label string) {
	t.Helper()
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: [%d][%d] = %v, serial reference %v (not bit-identical)",
					label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// requireMatchesRecursive holds an exact result to the recursive
// reference: bit for bit on the rows the DFS finishes (it adds in the
// reference's order), within num.ChainSumTol on the rows handed to the DP.
func requireMatchesRecursive(t *testing.T, got, want [][]float64, s [][]float64, level int, label string) {
	t.Helper()
	n, adj, vals := csrOf(s)
	for i, dp := range dpChosen(n, adj, vals, level) {
		if dp {
			worstRel(t, [][]float64{got[i]}, [][]float64{want[i]}, label+" (DP row)")
		} else {
			requireBitIdentical(t, [][]float64{got[i]}, [][]float64{want[i]}, label)
		}
	}
}

// TestExactParallelMatchesSerial pins the parallel build to the recursive
// reference on randomized graphs across sizes (either side of 64),
// densities, levels and worker counts, and
// every worker count to the serial build bit for bit.
func TestExactParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 5, 9, 12, 66} {
		for _, density := range []float64{0.15, 0.5, 1.0} {
			s := randomGraph(rng, n, density)
			// Full closure only at small n: the reference enumerates, which
			// is exponential in the chain length, and these graphs are dense.
			levels := []int{1, 2, 3}
			if n <= 9 {
				levels = append(levels, n-1)
			}
			for _, level := range levels {
				serial := workersT(s, level, 1)
				requireMatchesRecursive(t, serial, exactRecursive(s, level), s, level, "exact")
				for _, workers := range []int{2, 4, 8} {
					requireBitIdentical(t, workersT(s, level, workers), serial, "exact on more workers")
				}
				requireBitIdentical(t, flows(s, level), serial, "closure")
			}
		}
	}
}

// TestExactParallelPaperGraph is the acceptance case: the paper's
// 10-principal complete graph at full transitive closure, every row of
// which the DP sums.
func TestExactParallelPaperGraph(t *testing.T) {
	n := 10
	s := complete(n, 0.1)
	serial := workersT(s, n-1, 1)
	requireMatchesRecursive(t, serial, exactRecursive(s, n-1), s, n-1, "complete10")
	for _, workers := range []int{2, 4} {
		requireBitIdentical(t, workersT(s, n-1, workers), serial, "complete10 on more workers")
	}
}
