package modeltest

import (
	"math"
	"math/rand"
)

// Generation bounds. Sizes stay small on purpose: the oracle enumerates
// simple paths recursively and the shrinker wants room to bisect, and
// experience with model-based testing is that interesting enforcement bugs
// reproduce at 3–6 principals. Values are rounded to a coarse grid so
// generated cases print short and shrink cleanly.
const (
	minPrincipals = 2
	maxPrincipals = 7
	valueGrid     = 1.0 / 16 // shares and capacities land on multiples of this
)

// Generate draws one random agreement graph from rng, covering the
// taxonomy dimensions: shape (complete / sparse / ring / hierarchical /
// irregular), relative vs absolute agreements, overdraft on/off, and the
// transitivity level. The same rng state always yields the same graph.
func Generate(rng *rand.Rand) *Graph {
	n := minPrincipals + rng.Intn(maxPrincipals-minPrincipals+1)
	shape := Shape(rng.Intn(5))
	overdraft := rng.Intn(4) == 0 // 25% of cases lift the row-sum restriction

	g := &Graph{N: n, Shape: shape, Overdraft: overdraft}
	g.S = relativeMatrix(rng, n, shape, overdraft)

	// Absolute agreements ride along in ~40% of cases, on a handful of
	// random ordered pairs (the paper treats A as an addition to the
	// relative flows, capped by what the source owns).
	if rng.Intn(5) < 2 {
		g.A = zeroMatrix(n)
		edges := 1 + rng.Intn(n)
		for e := 0; e < edges; e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			g.A[i][j] = grid(rng.Float64() * 4)
		}
	}

	g.V = make([]float64, n)
	for i := range g.V {
		switch rng.Intn(8) {
		case 0:
			g.V[i] = 0 // exhausted principals are a distinct regime
		default:
			g.V[i] = grid(rng.Float64() * 10)
		}
	}

	// Level: full closure half the time, otherwise a random partial level
	// (1 = direct agreements only — the other regime the paper evaluates).
	if rng.Intn(2) == 0 {
		g.Level = 0
	} else {
		g.Level = 1 + rng.Intn(max(n-1, 1))
	}
	return g
}

// relativeMatrix wires the S matrix in the requested shape. Shares are
// drawn per edge; without overdraft each row is rescaled under 1.
func relativeMatrix(rng *rand.Rand, n int, shape Shape, overdraft bool) [][]float64 {
	s := zeroMatrix(n)
	edge := func(i, j int) {
		if i == j {
			return
		}
		s[i][j] = grid(0.05 + rng.Float64()*0.9)
	}
	switch shape {
	case Complete:
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				edge(i, j)
			}
		}
	case Sparse:
		degree := 1 + rng.Intn(max(n/2, 1))
		for i := 0; i < n; i++ {
			perm := rng.Perm(n)
			added := 0
			for _, j := range perm {
				if j == i || added == degree {
					continue
				}
				edge(i, j)
				added++
			}
		}
	case Ring:
		for i := 0; i < n; i++ {
			edge(i, (i+1)%n)
		}
	case Hierarchical:
		groupSize := 2
		if n >= 6 && rng.Intn(2) == 0 {
			groupSize = 3
		}
		groups := max(n/groupSize, 1)
		for g := 0; g < groups; g++ {
			base := g * groupSize
			hi := min(base+groupSize, n)
			for a := base; a < hi; a++ {
				for b := base; b < hi; b++ {
					edge(a, b)
				}
			}
		}
		// Leftover principals (n not divisible) join the last group.
		for p := groups * groupSize; p < n; p++ {
			base := (groups - 1) * groupSize
			edge(p, base)
			edge(base, p)
		}
		// Gateways: first member of each group to the next group's first.
		for g := 0; g < groups; g++ {
			from := g * groupSize
			to := ((g + 1) % groups) * groupSize
			edge(from, to)
		}
	case Irregular:
		p := 0.2 + rng.Float64()*0.6
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < p {
					edge(i, j)
				}
			}
		}
	}
	if !overdraft {
		normalizeRows(s)
	}
	return s
}

// normalizeRows rescales any row whose shares sum above 1 back under it,
// keeping values on the grid (the basic model's Σ_k S_ik ≤ 1 restriction).
func normalizeRows(s [][]float64) {
	for i, row := range s {
		var sum float64
		for j, v := range row {
			if j != i {
				sum += v
			}
		}
		if sum <= 1 {
			continue
		}
		scale := 1 / (sum + valueGrid)
		for j := range row {
			if j != i {
				row[j] = gridDown(row[j] * scale)
			}
		}
	}
}

// grid snaps x onto the coarse value grid (rounding to nearest, so the
// result can be 0 for tiny x).
func grid(x float64) float64 {
	return math.Round(x/valueGrid) * valueGrid
}

// gridDown snaps x down onto the grid (never increasing it, so row-sum
// rescaling cannot overshoot back above 1).
func gridDown(x float64) float64 {
	return math.Floor(x/valueGrid) * valueGrid
}
