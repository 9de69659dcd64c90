package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks (the "inclusive" method). xs is not
// modified. It returns NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean of xs (NaN for an empty sample).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentile reports the p-quantile of xs only when at least minBeyond
// samples lie strictly beyond it; otherwise ok is false and the caller
// must report the percentile as unsupported by the sample.
func tailPercentile(xs []float64, p float64, minBeyond int) (v float64, ok bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	v = quantile(xs, p)
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	return v, beyond >= minBeyond
}

// spread is the interquartile range of xs as a share of its median, the
// run-to-run steadiness figure the benchmark is tuned against. The
// quartiles follow Python's statistics.quantiles(xs, n=4) (its default
// "exclusive" method, including its extrapolation on tiny samples), so a
// script recomputing the figure gets the same number. It needs at least
// two samples.
func spread(xs []float64) float64 {
	ld := len(xs)
	if ld < 2 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	const n = 4
	q := func(i int) float64 {
		j := i * (ld + 1) / n
		j = max(1, min(j, ld-1))
		delta := i*(ld+1) - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	m := median(s)
	if m == 0 {
		return math.Inf(1)
	}
	return (q(3) - q(1)) / math.Abs(m)
}

// openLoop is the schedule of an open-loop generator: request i is due at
// start + i/rate, whether or not earlier requests have completed.
type openLoop struct {
	start time.Time
	rate  float64 // requests per second
}

func (o openLoop) due(i int) time.Time {
	return o.start.Add(time.Duration(float64(i) / o.rate * float64(time.Second)))
}

// latency is the time request i waited, counted from when it was due
// rather than from when the generator got round to sending it, so a stall
// charges every request it delays.
func (o openLoop) latency(i int, done time.Time) time.Duration { return done.Sub(o.due(i)) }

// lateness is how far behind schedule the generator sent request i (zero
// when it was sent on time).
func (o openLoop) lateness(i int, sent time.Time) time.Duration {
	if d := sent.Sub(o.due(i)); d > 0 {
		return d
	}
	return 0
}
