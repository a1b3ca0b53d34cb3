package main

import "testing"

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{1000, 0.99, true}, {999, 0.99, false},
		{20, 0.5, true}, {19, 0.5, false},
		{0, 0.5, false},
	} {
		v, ok := percentile(seq(c.n), c.p)
		if ok != c.ok {
			t.Errorf("percentile(n=%d, p=%v): ok = %v, want %v", c.n, c.p, ok, c.ok)
		}
		if c.n == 1000 && v != 990 {
			t.Errorf("p99 of 1..1000 = %v, want 990", v)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3, ok := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !ok || q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v, %v; want 2.75, 8.25", q1, q3, ok)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}
