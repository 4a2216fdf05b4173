// Package stats is the benchmark's statistics helper: medians,
// quartiles, and tail percentiles that refuse to exist without enough
// samples behind them.
//
// A percentile is only as good as the samples beyond it. A p90 over 9
// samples is the maximum in disguise, and a p99 over 200 samples rests
// on two. Percentile therefore refuses any percentile with fewer than
// MinTail samples beyond it, and HighestPercentile picks the highest
// rung of a fixed ladder that a sample count supports.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// MinTail is the number of samples that must lie beyond a percentile
// before it may be reported.
const MinTail = 10

// Ladder is the set of percentiles HighestPercentile chooses from.
var Ladder = []float64{50, 90, 99, 99.9, 99.99}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median returns the median of xs (the mean of the middle two for an
// even count); NaN for an empty sample.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first quartile, median and third quartile of
// xs with the same interpolation as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), so
// spreads computed here match spreads computed by Python tooling. It
// needs at least two samples.
func Quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, 0, fmt.Errorf("stats: quartiles need at least 2 samples, have %d", ld)
	}
	s := sorted(xs)
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2], nil
}

// Spread is the interquartile distance as a share of the median:
// (q3-q1)/median.
func Spread(xs []float64) (float64, error) {
	q1, q2, q3, err := Quartiles(xs)
	if err != nil {
		return 0, err
	}
	if q2 == 0 {
		return 0, fmt.Errorf("stats: spread of a sample with median 0")
	}
	return (q3 - q1) / math.Abs(q2), nil
}

// Beyond returns how many of n samples lie strictly beyond the
// nearest-rank p-th percentile: the percentile is the k-th smallest
// sample with k = ceil(p/100 * n), and n-k samples follow it.
func Beyond(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the 1-based nearest-rank index of the p-th percentile of n
// samples. The epsilon keeps float rounding (99.9/100*10000 is
// 9990.000000000002) from pushing an exact rank up by one.
func rank(n int, p float64) int {
	return max(int(math.Ceil(p/100*float64(n)-1e-9)), 1)
}

// Percentile returns the nearest-rank p-th percentile of xs. It
// refuses (ok=false) when fewer than MinTail samples lie beyond it.
func Percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 || Beyond(n, p) < MinTail {
		return 0, false
	}
	return sorted(xs)[rank(n, p)-1], true
}

// HighestPercentile returns the highest Ladder percentile that n
// samples support (at least MinTail beyond it); ok is false when not
// even the median is supported.
func HighestPercentile(n int) (p float64, ok bool) {
	for i := len(Ladder) - 1; i >= 0; i-- {
		if Beyond(n, Ladder[i]) >= MinTail {
			return Ladder[i], true
		}
	}
	return 0, false
}

// Summary is one sample's median and quartiles with its size.
type Summary struct {
	N              int
	Q1, Median, Q3 float64
	// Spread is (Q3-Q1)/Median.
	Spread float64
}

// Summarize computes a Summary; it needs at least two samples and a
// non-zero median.
func Summarize(xs []float64) (Summary, error) {
	q1, q2, q3, err := Quartiles(xs)
	if err != nil {
		return Summary{}, err
	}
	sp, err := Spread(xs)
	if err != nil {
		return Summary{}, err
	}
	return Summary{N: len(xs), Q1: q1, Median: q2, Q3: q3, Spread: sp}, nil
}
