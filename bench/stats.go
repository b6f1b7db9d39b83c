package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the two nearest order statistics of the exact sample (no buckets).
// An empty sample yields 0, so a layer that did not run reports 0.
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

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// undisturbed reduces the rounds of one run to the value the machine
// reaches when nothing else competes for it: the fast decile of xs, which
// is its 10th percentile, or its 90th when higher is better.  The host
// only ever slows a round down, in blips of milliseconds and in episodes
// of seconds to minutes (README.md, "Noise"), so the median over rounds
// reads whichever state the host was in for most of the run, while the
// fast end of the sample is the same from run to run.  The decile rather
// than the best round, so that a handful of lucky rounds (a journal whose
// fsyncs all happened to be short) do not decide the value either.
func undisturbed(xs []float64, higher bool) float64 {
	if higher {
		return quantile(xs, 0.9)
	}
	return quantile(xs, 0.1)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method), because
// that is the rule the acceptance check applies to repeated runs.  It
// needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
