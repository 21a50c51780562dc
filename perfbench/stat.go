package main

import (
	"math"
	"math/rand"
	"sort"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// pairedOverheadPct summarizes an interleaved A/B timing study: base[i]
// and treat[i] were measured back to back. It returns the overhead of
// treat over base as a percentage of the mean base time, with a
// percentile-bootstrap 95% confidence interval over the pairs.
func pairedOverheadPct(base, treat []float64, rng *rand.Rand, resamples int) (pct, lo, hi float64) {
	n := len(base)
	if n == 0 || len(treat) != n {
		return 0, 0, 0
	}
	stat := func(idx func(int) int) float64 {
		var sb, sd float64
		for i := 0; i < n; i++ {
			j := idx(i)
			sb += base[j]
			sd += treat[j] - base[j]
		}
		return 100 * sd / sb
	}
	pct = stat(func(i int) int { return i })
	boots := make([]float64, resamples)
	for b := range boots {
		boots[b] = stat(func(int) int { return rng.Intn(n) })
	}
	return pct, quantile(boots, 0.025), quantile(boots, 0.975)
}
