package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p90 needs ten slower requests behind it to mean anything.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of an ascending sample:
// the smallest value with at least q·n samples at or below it. ok is false
// when fewer than minBeyond samples lie beyond that rank — on its far
// side from the median — in which case the value must not be reported.
func percentile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	beyond := n - rank
	if q < 0.5 {
		beyond = rank - 1
	}
	return sorted[rank-1], beyond >= minBeyond
}

// tailPercentile is the highest percentile of an ascending sample, up to
// the p99, that has minBeyond samples beyond it: the tail a run can
// report honestly. ok is false when that is no higher than the median.
func tailPercentile(sorted []float64) (q, v float64, ok bool) {
	n := len(sorted)
	rank := int(math.Ceil(0.99 * float64(n)))
	q = 0.99
	if most := n - minBeyond; rank > most {
		rank = most
		q = float64(rank) / float64(n)
	}
	if rank <= (n+1)/2 {
		return 0, 0, false
	}
	return q, sorted[rank-1], true
}

// fold is one metric of one run: the value reported, and how the
// repetitions behind it were spread.
type fold struct {
	value    float64
	q1, q3   float64 // quartiles of the per-repetition values
	min, max float64
	reps     int
	samples  int // operations or timings behind the value
}

// medianOf folds repeated timings of one thing (set-up, restart) into
// their median. Quartiles interpolate linearly between order statistics
// (the inclusive method), so a single repetition folds to itself.
func medianOf(values []float64) fold {
	s := sortedCopy(values)
	f := spreadOf(s)
	f.value, f.samples = quantile(s, 0.5), len(s)
	return f
}

// spreadOf is the quartiles and extremes of an ascending sample.
func spreadOf(s []float64) fold {
	if len(s) == 0 {
		return fold{}
	}
	return fold{q1: quantile(s, 0.25), q3: quantile(s, 0.75), min: s[0], max: s[len(s)-1], reps: len(s)}
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// quantile interpolates the q-quantile of an ascending sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}
