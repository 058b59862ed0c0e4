package stats

import (
	"math"
	"sort"
)

// Accumulator computes streaming mean and variance using Welford's
// algorithm, which is numerically stable for long runs. The zero value
// is an empty accumulator ready for use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// Mean returns the sample mean, or 0 for an empty accumulator.
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance, or 0 with fewer than
// two observations.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. xs need not be sorted.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if q < 0 || q > 1 {
		panic("stats: quantile out of [0,1]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
