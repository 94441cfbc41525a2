package num

import (
	"math"
	"testing"
)

func TestEq(t *testing.T) {
	cases := []struct {
		a, b float64
		want bool
	}{
		{0, 0, true},
		{1, 1, true},
		{1, 1 + 1e-12, true},
		{1, 1 + 1e-6, false},
		{1e12, 1e12 * (1 + 1e-12), true}, // relative scaling
		{1e12, 1e12 + 1, true},
		{0, 1e-12, true}, // absolute near zero
		{0, 1e-6, false},
		{-1, 1, false},
		{math.Inf(1), math.Inf(1), true},
		{math.NaN(), math.NaN(), false},
	}
	for _, c := range cases {
		if got := Eq(c.a, c.b); got != c.want {
			t.Errorf("Eq(%g, %g) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestIsZero(t *testing.T) {
	if !IsZero(0) || !IsZero(math.Copysign(0, -1)) {
		t.Error("IsZero should accept both signed zeros")
	}
	if IsZero(1e-300) {
		t.Error("IsZero must be exact: 1e-300 is not zero")
	}
}

func TestLeqGeq(t *testing.T) {
	if !Leq(1, 2) || !Leq(2, 2) || !Leq(2+1e-12, 2) {
		t.Error("Leq tolerance cases failed")
	}
	if Leq(2+1e-6, 2) {
		t.Error("Leq should reject differences above Eps")
	}
	if !Geq(2, 1) || !Geq(2-1e-12, 2) || Geq(2-1e-6, 2) {
		t.Error("Geq cases failed")
	}
}

func TestEqChainSum(t *testing.T) {
	for _, c := range []struct {
		a, b float64
		want bool
	}{
		{0, 0, true},
		{0.3, 0.3 * (1 + 1e-12), true},
		{0.3, 0.3 * (1 + 1e-9), false},
		{1e-30, 1e-30 * (1 + 1e-12), true}, // relative all the way down
		{1e-30, 2e-30, false},
		{0, 1e-300, false},
	} {
		if got := EqChainSum(c.a, c.b); got != c.want {
			t.Errorf("EqChainSum(%g, %g) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
