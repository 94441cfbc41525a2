// Package metrics provides the small statistics toolkit used by the
// simulator and benchmark harness: streaming mean/variance, percentiles,
// and fixed-width time-series binning (the paper reports averages per
// 10-minute slot of a 24-hour day).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Welford accumulates count, mean and variance in one pass using
// Welford's numerically stable update.
type Welford struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the (population) variance.
func (w *Welford) Var() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Std returns the population standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest observation (0 when empty).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 when empty).
func (w *Welford) Max() float64 { return w.max }

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It copies and sorts the
// input. Percentile of an empty slice is 0.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// TimeSeries bins (time, value) observations into fixed-width slots and
// reports per-slot counts and means. Times outside [0, horizon) are
// clamped to the first/last slot.
type TimeSeries struct {
	slotWidth float64
	sums      []float64
	counts    []int
}

// NewTimeSeries creates a series covering [0, horizon) with the given slot
// width. It panics on non-positive widths or horizons — those are
// configuration errors.
func NewTimeSeries(horizon, slotWidth float64) *TimeSeries {
	if horizon <= 0 || slotWidth <= 0 {
		panic(fmt.Sprintf("metrics: NewTimeSeries(%g, %g): arguments must be positive", horizon, slotWidth))
	}
	n := int(math.Ceil(horizon / slotWidth))
	return &TimeSeries{
		slotWidth: slotWidth,
		sums:      make([]float64, n),
		counts:    make([]int, n),
	}
}

// Slots returns the number of bins.
func (ts *TimeSeries) Slots() int { return len(ts.sums) }

// SlotWidth returns the configured bin width.
func (ts *TimeSeries) SlotWidth() float64 { return ts.slotWidth }

// Add records value at the given time.
func (ts *TimeSeries) Add(at, value float64) {
	i := int(at / ts.slotWidth)
	if i < 0 {
		i = 0
	}
	if i >= len(ts.sums) {
		i = len(ts.sums) - 1
	}
	ts.sums[i] += value
	ts.counts[i]++
}

// Count returns the number of observations in slot i.
func (ts *TimeSeries) Count(i int) int { return ts.counts[i] }

// Mean returns the mean value in slot i (0 if the slot is empty).
func (ts *TimeSeries) Mean(i int) float64 {
	if ts.counts[i] == 0 {
		return 0
	}
	return ts.sums[i] / float64(ts.counts[i])
}

// Means returns the per-slot means as a slice.
func (ts *TimeSeries) Means() []float64 {
	out := make([]float64, len(ts.sums))
	for i := range out {
		out[i] = ts.Mean(i)
	}
	return out
}

// Counts returns a copy of the per-slot counts.
func (ts *TimeSeries) Counts() []int {
	out := make([]int, len(ts.counts))
	copy(out, ts.counts)
	return out
}

// MaxMean returns the largest per-slot mean and its slot index; (-1, 0)
// when every slot is empty.
func (ts *TimeSeries) MaxMean() (slot int, mean float64) {
	slot = -1
	for i := range ts.sums {
		if ts.counts[i] == 0 {
			continue
		}
		if m := ts.Mean(i); slot == -1 || m > mean {
			slot, mean = i, m
		}
	}
	return slot, mean
}
