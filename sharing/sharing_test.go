package sharing

import (
	"errors"
	"math"
	"testing"

	"repro/internal/agreement"
	"repro/internal/core"
)

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g", what, got, want)
	}
}

// paperCommunity builds Example 1 of the paper through the facade.
func paperCommunity(t *testing.T) (*Community, [4]Principal) {
	t.Helper()
	c := NewCommunity()
	a := c.AddPrincipal("A")
	b := c.AddPrincipal("B")
	cc := c.AddPrincipal("C")
	d := c.AddPrincipal("D")
	if err := c.AddResource(a, "disk", 10); err != nil {
		t.Fatal(err)
	}
	if err := c.AddResource(b, "disk", 15); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ShareQuantity(a, cc, "disk", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ShareFraction(a, b, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ShareFraction(b, d, 0.6); err != nil {
		t.Fatal(err)
	}
	return c, [4]Principal{a, b, cc, d}
}

func TestValuesMatchPaperExample(t *testing.T) {
	c, p := paperCommunity(t)
	vals, err := c.Values("disk")
	if err != nil {
		t.Fatal(err)
	}
	almost(t, vals[p[0]], 10, 1e-9, "value(A)")
	almost(t, vals[p[1]], 20, 1e-9, "value(B)")
	almost(t, vals[p[2]], 3, 1e-9, "value(C)")
	almost(t, vals[p[3]], 12, 1e-9, "value(D)")
}

func TestCapacities(t *testing.T) {
	c, p := paperCommunity(t)
	caps, err := c.Capacities("disk")
	if err != nil {
		t.Fatal(err)
	}
	// B: own 15 + 50% of A's 10 = 20.
	almost(t, caps[p[1]], 20, 1e-9, "C_B")
	// D: 60% of B's fluctuating value, i.e. transitively into A.
	cb, err := c.Capacity(p[3], "disk")
	if err != nil {
		t.Fatal(err)
	}
	if cb <= 0 {
		t.Errorf("C_D = %g, want positive transitive capacity", cb)
	}
}

func TestAllocateAndConsume(t *testing.T) {
	c, p := paperCommunity(t)
	plan, err := c.Allocate(p[1], "disk", 18)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, take := range plan.Take {
		sum += take
	}
	almost(t, sum, 18, 1e-6, "takes total")
	if plan.Take[p[0]] > 5+1e-6 {
		t.Errorf("took %g from A, agreement cap is 5", plan.Take[p[0]])
	}
	if err := c.Consume("disk", plan); err != nil {
		t.Fatal(err)
	}
	caps, err := c.Capacities("disk")
	if err != nil {
		t.Fatal(err)
	}
	// A unit taken across the 50% agreement only costs B half a unit of
	// future capacity: C'_B = (15 - t_B) + 0.5(10 - t_A) = 2 + 0.5 t_A.
	almost(t, caps[p[1]], 2+0.5*plan.Take[p[0]], 1e-6, "B's capacity after consuming")
}

func TestAllocateInsufficient(t *testing.T) {
	c, p := paperCommunity(t)
	if _, err := c.Allocate(p[2], "disk", 100); !errors.Is(err, core.ErrInsufficient) {
		t.Errorf("want ErrInsufficient, got %v", err)
	}
}

func TestRevoke(t *testing.T) {
	c := NewCommunity()
	a := c.AddPrincipal("A")
	b := c.AddPrincipal("B")
	if err := c.AddResource(a, "cpu", 8); err != nil {
		t.Fatal(err)
	}
	tkt, err := c.ShareFraction(a, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Capacity(b, "cpu"); math.Abs(got-8) > 1e-9 {
		t.Fatalf("C_B = %g before revoke", got)
	}
	c.Revoke(tkt)
	if got, _ := c.Capacity(b, "cpu"); got != 0 {
		t.Errorf("C_B = %g after revoke, want 0", got)
	}
}

func TestGrantMovesCapacity(t *testing.T) {
	c := NewCommunity()
	a := c.AddPrincipal("A")
	b := c.AddPrincipal("B")
	if err := c.AddResource(a, "cpu", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Grant(a, b, "cpu", 4); err != nil {
		t.Fatal(err)
	}
	ca, _ := c.Capacity(a, "cpu")
	cb, _ := c.Capacity(b, "cpu")
	almost(t, ca, 6, 1e-9, "grantor capacity")
	almost(t, cb, 4, 1e-9, "grantee capacity")
}

func TestAddResourceTopsUp(t *testing.T) {
	c := NewCommunity()
	a := c.AddPrincipal("A")
	if err := c.AddResource(a, "cpu", 4); err != nil {
		t.Fatal(err)
	}
	if err := c.AddResource(a, "cpu", 6); err != nil {
		t.Fatal(err)
	}
	got, err := c.Capacity(a, "cpu")
	if err != nil {
		t.Fatal(err)
	}
	almost(t, got, 10, 1e-9, "topped-up capacity")
}

func TestSetCapacity(t *testing.T) {
	c := NewCommunity()
	a := c.AddPrincipal("A")
	if err := c.SetCapacity(a, "cpu", 5); err == nil {
		t.Error("SetCapacity before AddResource accepted")
	}
	if err := c.AddResource(a, "cpu", 4); err != nil {
		t.Fatal(err)
	}
	if err := c.SetCapacity(a, "cpu", 9); err != nil {
		t.Fatal(err)
	}
	got, _ := c.Capacity(a, "cpu")
	almost(t, got, 9, 1e-9, "capacity after SetCapacity")
}

func TestMultipleResourceTypes(t *testing.T) {
	c := NewCommunity()
	a := c.AddPrincipal("A")
	b := c.AddPrincipal("B")
	if err := c.AddResource(a, "cpu", 4); err != nil {
		t.Fatal(err)
	}
	if err := c.AddResource(b, "disk", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ShareFraction(b, a, 0.25); err != nil {
		t.Fatal(err)
	}
	cpu, _ := c.Capacity(a, "cpu")
	disk, _ := c.Capacity(a, "disk")
	almost(t, cpu, 4, 1e-9, "cpu capacity")
	almost(t, disk, 25, 1e-9, "disk via relative agreement")
}

func TestLevelConfig(t *testing.T) {
	c := NewCommunityWithConfig(Config{Level: 1})
	a := c.AddPrincipal("A")
	b := c.AddPrincipal("B")
	d := c.AddPrincipal("D")
	if err := c.AddResource(d, "cpu", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ShareFraction(d, b, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ShareFraction(b, a, 1); err != nil {
		t.Fatal(err)
	}
	got, err := c.Capacity(a, "cpu")
	if err != nil {
		t.Fatal(err)
	}
	almost(t, got, 0, 1e-9, "level-1 blocks the transitive chain")

	full := NewCommunity()
	a2 := full.AddPrincipal("A")
	b2 := full.AddPrincipal("B")
	d2 := full.AddPrincipal("D")
	if err := full.AddResource(d2, "cpu", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := full.ShareFraction(d2, b2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := full.ShareFraction(b2, a2, 1); err != nil {
		t.Fatal(err)
	}
	got, err = full.Capacity(a2, "cpu")
	if err != nil {
		t.Fatal(err)
	}
	almost(t, got, 10, 1e-9, "full closure reaches the chain")
}

func TestCheckConservative(t *testing.T) {
	c := NewCommunity()
	a := c.AddPrincipal("A")
	b := c.AddPrincipal("B")
	d := c.AddPrincipal("D")
	if err := c.AddResource(a, "cpu", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ShareFraction(a, b, 0.7); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ShareFraction(a, d, 0.7); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConservative(); err == nil {
		t.Error("140% issued should be flagged")
	}
}

func TestShareFractionValidation(t *testing.T) {
	c := NewCommunity()
	a := c.AddPrincipal("A")
	b := c.AddPrincipal("B")
	if _, err := c.ShareFraction(a, b, 0); err == nil {
		t.Error("zero fraction accepted")
	}
	if _, err := c.ShareFraction(a, b, 1.5); err == nil {
		t.Error("fraction > 1 accepted")
	}
}

func TestFlowCoefficients(t *testing.T) {
	c, p := paperCommunity(t)
	k, err := c.FlowCoefficients("disk")
	if err != nil {
		t.Fatal(err)
	}
	almost(t, k[p[0]][p[1]], 0.5, 1e-9, "K[A][B]")
	almost(t, k[p[1]][p[3]], 0.6, 1e-9, "K[B][D]")
	almost(t, k[p[0]][p[3]], 0.3, 1e-9, "K[A][D] via chain")
}

func TestSystemEscapeHatch(t *testing.T) {
	c, p := paperCommunity(t)
	sys := c.System()
	if sys == nil || sys.NumPrincipals() != 4 {
		t.Fatal("System() not wired")
	}
	// Advanced path: inflate B's currency, diluting D's agreement.
	if err := sys.Inflate(sys.CurrencyOf(p[1]), 2*sys.Currency(sys.CurrencyOf(p[1])).FaceValue); err != nil {
		t.Fatal(err)
	}
	k, err := c.FlowCoefficients("disk")
	if err != nil {
		t.Fatal(err)
	}
	almost(t, k[p[1]][p[3]], 0.3, 1e-9, "K[B][D] after inflation")
}

func TestSnapshotRoundTripThroughFacade(t *testing.T) {
	c, p := paperCommunity(t)
	snap := c.Snapshot()
	restored, names, err := FromSnapshot(snap, Config{})
	if err != nil {
		t.Fatal(err)
	}
	origCaps, err := c.Capacities("disk")
	if err != nil {
		t.Fatal(err)
	}
	newCaps, err := restored.Capacities("disk")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"A", "B", "C", "D"} {
		var orig float64
		for _, id := range p {
			if c.Name(id) == name {
				orig = origCaps[id]
			}
		}
		if got := newCaps[names[name]]; math.Abs(got-orig) > 1e-9 {
			t.Errorf("capacity(%s): %g vs %g", name, got, orig)
		}
	}
	// The restored community is fully operational: allocate and consume.
	plan, err := restored.Allocate(names["B"], "disk", 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Consume("disk", plan); err != nil {
		t.Fatal(err)
	}
}

func TestFromSnapshotInvalid(t *testing.T) {
	bad := &agreement.Snapshot{Principals: []agreement.PrincipalSnapshot{{Name: ""}}}
	if _, _, err := FromSnapshot(bad, Config{}); err == nil {
		t.Error("invalid snapshot accepted")
	}
}

func TestLedgerFacade(t *testing.T) {
	c, p := paperCommunity(t)
	ledger, err := c.Ledger("disk")
	if err != nil {
		t.Fatal(err)
	}
	lease, err := ledger.Acquire(int(p[1]), 18)
	if err != nil {
		t.Fatal(err)
	}
	if ledger.Outstanding() != 1 {
		t.Errorf("outstanding = %d", ledger.Outstanding())
	}
	if err := ledger.Release(lease.ID); err != nil {
		t.Fatal(err)
	}
	avail := ledger.Available()
	almost(t, avail[p[0]], 10, 1e-9, "A restored")
	almost(t, avail[p[1]], 15, 1e-9, "B restored")
}

// TestValidate fixes the facade's matrix check: a square matrix with a
// zero diagonal and non-negative entries passes, overdraft (a row summing
// past 1) included, and a non-square matrix, a non-zero diagonal or a
// negative entry is refused.
func TestValidate(t *testing.T) {
	for _, ok := range [][][]float64{
		nil,
		{},
		{{0, 0.3}, {0.2, 0}},
		{{0, 0.7, 0.6}, {0, 0, 1}, {0, 0, 0}},
	} {
		if err := Validate(ok); err != nil {
			t.Errorf("Validate(%v) = %v, want nil", ok, err)
		}
	}
	for name, bad := range map[string][][]float64{
		"non-square":        {{0, 0.3}},
		"ragged":            {{0, 0.3, 0}, {0.2, 0, 0}, {0, 0}},
		"non-zero diagonal": {{0.1, 0.3}, {0.2, 0}},
		"negative entry":    {{0, -0.3}, {0.2, 0}},
	} {
		if err := Validate(bad); err == nil {
			t.Errorf("%s: Validate(%v) accepted it", name, bad)
		}
	}
}
