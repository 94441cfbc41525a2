package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Errorf("N = %d, want 8", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %g, want 5", w.Mean())
	}
	if math.Abs(w.Std()-2) > 1e-12 {
		t.Errorf("Std = %g, want 2", w.Std())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("Min/Max = %g/%g, want 2/9", w.Min(), w.Max())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.N() != 0 {
		t.Errorf("empty Welford not zero: %+v", w)
	}
}

func TestWelfordMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
			w.Add(xs[i])
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(n)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		return math.Abs(w.Mean()-mean) < 1e-9 && math.Abs(w.Var()-ss/float64(n)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {90, 9.1},
	}
	for _, tc := range cases {
		if got := Percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Percentile(%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(nil) should be 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+rng.Intn(50))
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(xs, p)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries(100, 10)
	if ts.Slots() != 10 {
		t.Fatalf("Slots = %d, want 10", ts.Slots())
	}
	ts.Add(5, 2)
	ts.Add(7, 4)
	ts.Add(95, 10)
	ts.Add(150, 20) // clamps to last slot
	ts.Add(-3, 1)   // clamps to first slot
	if got := ts.Mean(0); math.Abs(got-(2+4+1)/3.0) > 1e-12 {
		t.Errorf("Mean(0) = %g", got)
	}
	if got := ts.Mean(9); math.Abs(got-15) > 1e-12 {
		t.Errorf("Mean(9) = %g, want 15", got)
	}
	if ts.Count(1) != 0 || ts.Mean(1) != 0 {
		t.Error("empty slot should report 0")
	}
	slot, mean := ts.MaxMean()
	if slot != 9 || math.Abs(mean-15) > 1e-12 {
		t.Errorf("MaxMean = (%d, %g), want (9, 15)", slot, mean)
	}
	if len(ts.Means()) != 10 || len(ts.Counts()) != 10 {
		t.Error("Means/Counts wrong length")
	}
}

func TestTimeSeriesEmptyMaxMean(t *testing.T) {
	ts := NewTimeSeries(10, 1)
	if slot, _ := ts.MaxMean(); slot != -1 {
		t.Errorf("MaxMean on empty = %d, want -1", slot)
	}
}

func TestTimeSeriesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTimeSeries(0, 1) should panic")
		}
	}()
	NewTimeSeries(0, 1)
}
