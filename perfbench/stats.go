package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is Python's statistics.median: the middle value, or the mean of
// the two middle values for an even count. NaN for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles is Python's statistics.quantiles(xs, n=4) with its default
// "exclusive" method, which is how run-to-run spread is judged: Q1 and Q3
// interpolated at ranks (len+1)/4 and 3(len+1)/4.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

// tailLadder is the percentile ladder a tail is reported on.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// tailPct is the highest ladder percentile, no higher than want, that
// leaves at least ten samples beyond it — a p99 over 200 samples rests on
// two, so it is reported as the p90 instead. Below 20 samples no ladder
// step qualifies and the median is returned as the floor.
func tailPct(n int, want float64) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if p > want {
			break
		}
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// tail reports xs at the percentile tailPct allows, with that percentile;
// at the median floor it is the median itself.
func tail(xs []float64, want float64) (value, pct float64) {
	pct = tailPct(len(xs), want)
	if pct == 50 {
		return median(xs), pct
	}
	return percentile(xs, pct), pct
}

// metricSpec is one end-to-end metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// worsening is how much worse b is than the reference a, as a share of a
// (negative when b is better).
func (m metricSpec) worsening(a, b float64) float64 {
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// checkBound applies the acceptance rule to two sets of runs of the same
// code: each set's spread stays within the bound (set-up time excepted, whose
// spread is reported only), and the second median is no worse than the first
// by more than the bound. It returns one line per violation.
func checkBound(m metricSpec, first, second []float64) []string {
	var bad []string
	if m.Name != "setup_s" {
		for i, set := range [][]float64{first, second} {
			if sp := spread(set); !(sp <= m.Bound) {
				bad = append(bad, fmt.Sprintf("%s: set %d spread %.4f > bound %.4f", m.Name, i+1, sp, m.Bound))
			}
		}
	}
	if w := m.worsening(median(first), median(second)); !(w <= m.Bound) {
		bad = append(bad, fmt.Sprintf("%s: second median worse by %.4f > bound %.4f", m.Name, w, m.Bound))
	}
	return bad
}
