package agreement

import (
	"fmt"
	"math/rand"
)

// The paper expects most deployments to use one of a few agreement-graph
// shapes (end of Section 2): complete, sparse, and hierarchical; the case
// study adds a cyclic loop. The builders below construct a System with n
// principals, each owning `capacity` units of one resource type, wired in
// the requested shape. They return the system and the principal IDs in
// creation order.

// BuildComplete wires every principal to share the fraction `share` of its
// resources with every other principal (Figures 6–8 use 10 principals at
// 10%). share*(n-1) may exceed 1; CheckConservative will flag that.
func BuildComplete(n int, typ ResourceType, capacity, share float64) (*System, []PrincipalID, error) {
	s, ids, err := buildPrincipals(n, typ, capacity)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if err := shareFraction(s, ids[i], ids[j], share); err != nil {
				return nil, nil, err
			}
		}
	}
	return s, ids, nil
}

// BuildLoop wires principal i to share `share` of its resources with
// principal (i+skip) mod n only — the cyclic-loop structure of Figures
// 9–11 (which use 80% shares). With one time zone between adjacent
// principals, skip is the paper's time-zone gap between sharing
// neighbors. It must lie in (0, n) and be coprime with n, or the
// agreements would form several disjoint cycles instead of one loop.
func BuildLoop(n int, typ ResourceType, capacity, share float64, skip int) (*System, []PrincipalID, error) {
	if skip <= 0 || skip >= n {
		return nil, nil, fmt.Errorf("agreement: BuildLoop: skip %d out of range (0, %d)", skip, n)
	}
	if g := gcd(skip, n); g != 1 {
		return nil, nil, fmt.Errorf("agreement: BuildLoop: skip %d shares a factor with %d principals; agreements would form %d disjoint cycles", skip, n, g)
	}
	s, ids, err := buildPrincipals(n, typ, capacity)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < n; i++ {
		if err := shareFraction(s, ids[i], ids[(i+skip)%n], share); err != nil {
			return nil, nil, err
		}
	}
	return s, ids, nil
}

// BuildSparse wires each principal to `degree` distinct random partners
// with the given share, using rng for reproducibility.
func BuildSparse(n int, typ ResourceType, capacity, share float64, degree int, rng *rand.Rand) (*System, []PrincipalID, error) {
	if degree < 0 || degree >= n {
		return nil, nil, fmt.Errorf("agreement: BuildSparse: degree %d out of range for %d principals", degree, n)
	}
	s, ids, err := buildPrincipals(n, typ, capacity)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < n; i++ {
		perm := rng.Perm(n)
		added := 0
		for _, j := range perm {
			if j == i || added == degree {
				continue
			}
			if err := shareFraction(s, ids[i], ids[j], share); err != nil {
				return nil, nil, err
			}
			added++
		}
	}
	return s, ids, nil
}

// BuildDistanceDecay wires a complete graph where the share with a
// neighbor depends on the circular distance between the two principals:
// shares[d-1] for distance d, and shares[len-1] for anything farther.
// Figure 13 uses shares 20%/10%/5%/3% for distances 1/2/3/4+.
func BuildDistanceDecay(n int, typ ResourceType, capacity float64, shares []float64) (*System, []PrincipalID, error) {
	if len(shares) == 0 {
		return nil, nil, fmt.Errorf("agreement: BuildDistanceDecay: need at least one share level")
	}
	s, ids, err := buildPrincipals(n, typ, capacity)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			d := circularDistance(i, j, n)
			idx := d - 1
			if idx >= len(shares) {
				idx = len(shares) - 1
			}
			if shares[idx] <= 0 {
				continue
			}
			if err := shareFraction(s, ids[i], ids[j], shares[idx]); err != nil {
				return nil, nil, err
			}
		}
	}
	return s, ids, nil
}

// BuildHierarchical partitions n = groups*groupSize principals into
// groups with complete intra-group sharing at intraShare, and wires each
// group's designated gateway (its first member) to the next group's
// gateway at interShare — the paper's hierarchical structure (complete
// inside, sparse across).
func BuildHierarchical(groups, groupSize int, typ ResourceType, capacity, intraShare, interShare float64) (*System, []PrincipalID, error) {
	if groups <= 0 || groupSize <= 0 {
		return nil, nil, fmt.Errorf("agreement: BuildHierarchical: groups and groupSize must be positive")
	}
	n := groups * groupSize
	s, ids, err := buildPrincipals(n, typ, capacity)
	if err != nil {
		return nil, nil, err
	}
	for g := 0; g < groups; g++ {
		base := g * groupSize
		for a := 0; a < groupSize; a++ {
			for b := 0; b < groupSize; b++ {
				if a == b {
					continue
				}
				if err := shareFraction(s, ids[base+a], ids[base+b], intraShare); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	for g := 0; g < groups; g++ {
		from := ids[g*groupSize]
		to := ids[((g+1)%groups)*groupSize]
		if from == to {
			continue
		}
		if err := shareFraction(s, from, to, interShare); err != nil {
			return nil, nil, err
		}
	}
	return s, ids, nil
}

func buildPrincipals(n int, typ ResourceType, capacity float64) (*System, []PrincipalID, error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("agreement: need at least one principal, got %d", n)
	}
	s := NewSystem()
	ids := make([]PrincipalID, n)
	for i := 0; i < n; i++ {
		ids[i] = s.AddPrincipal(fmt.Sprintf("P%d", i))
		if _, err := s.AddResource(fmt.Sprintf("R%d", i), typ, ids[i], capacity); err != nil {
			return nil, nil, err
		}
	}
	return s, ids, nil
}

// shareFraction expresses "principal from shares fraction `share` of its
// resources with principal to" as a relative ticket between their default
// currencies.
func shareFraction(s *System, from, to PrincipalID, share float64) error {
	if share <= 0 || share > 1 {
		return fmt.Errorf("agreement: share fraction %g out of (0, 1]", share)
	}
	cf := s.CurrencyOf(from)
	units := share * s.Currency(cf).FaceValue
	_, err := s.ShareRelative(cf, s.CurrencyOf(to), units)
	return err
}

func circularDistance(i, j, n int) int {
	d := i - j
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return d
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
