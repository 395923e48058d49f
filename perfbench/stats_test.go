package main

import (
	"math"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns, the definition the acceptance rule uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 3.75},
		{[]float64{1, 3, 5, 7, 9}, 2, 8},
		{[]float64{10, 20}, 7.5, 22.5}, // extrapolates, as Python does
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n         int
		want, pct float64
	}{
		{19, 99, 50}, // nothing qualifies: the median is the floor
		{82, 99, 50},
		{100, 99, 90},
		{999, 99, 90},
		{1000, 99, 99},
		{100000, 99, 99}, // never above the percentile asked for
		{99999, 99.99, 99.9},
		{100000, 99.99, 99.99},
	} {
		if got := tailPct(c.n, c.want); got != c.pct {
			t.Errorf("tailPct(%d, %v) = %v, want %v", c.n, c.want, got, c.pct)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct := tail(xs, 99); pct != 90 || v != 90 {
		t.Errorf("tail(1..100, 99) = %v at p%v, want 90 at p90", v, pct)
	}
	if v, pct := tail([]float64{1, 2, 3, 4}, 99); pct != 50 || v != 2.5 {
		t.Errorf("tail of 4 samples = %v at p%v, want the median 2.5 at p50", v, pct)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{{5, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestCheckBound(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	slower := make([]float64, len(steady))
	for i, v := range steady {
		slower[i] = v * 0.8
	}
	faster := make([]float64, len(steady))
	for i, v := range steady {
		faster[i] = v * 1.2
	}
	rate := metricSpec{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}
	latency := metricSpec{Name: "latency_ms", Unit: "ms", Better: "lower", Bound: 0.1}
	setup := metricSpec{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}
	for _, c := range []struct {
		name          string
		m             metricSpec
		first, second []float64
		fail          string
	}{
		{"same", rate, steady, steady, ""},
		{"throughput drops", rate, steady, slower, "second median worse"},
		{"throughput rises", rate, steady, faster, ""},
		{"latency rises", latency, steady, faster, "second median worse"},
		{"latency drops", latency, steady, slower, ""},
		{"spread too wide", rate, steady, noisy, "set 2 spread"},
		{"setup spread is not gated", setup, noisy, noisy, ""},
		{"setup drift is gated", setup, steady, []float64{130, 131, 129, 130, 130, 130, 130, 130, 130, 130}, "second median worse"},
	} {
		bad := checkBound(c.m, c.first, c.second)
		got := strings.Join(bad, "; ")
		if (c.fail == "") != (len(bad) == 0) || !strings.Contains(got, c.fail) {
			t.Errorf("%s: violations %q, want one containing %q", c.name, got, c.fail)
		}
	}
}
