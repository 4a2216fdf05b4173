package stats

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 0.5, 2.2}, 0.5, 2.2, 3.1},
		{[]float64{5, 1}, 0, 3, 6},
	} {
		q1, q2, q3, err := Quartiles(tc.xs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if _, _, _, err := Quartiles([]float64{1}); err == nil {
		t.Error("Quartiles of one sample succeeded")
	}
}

func TestMedian(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("median of nothing is a number")
	}
}

func TestSpread(t *testing.T) {
	sp, err := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if want := (8.25 - 2.75) / 5.5; math.Abs(sp-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", sp, want)
	}
	if _, err := Spread([]float64{0, 0, 0}); err == nil {
		t.Error("spread around a zero median succeeded")
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// A p90 over 9 samples has nothing beyond it: it is the maximum.
func TestPercentileRefusesThinTail(t *testing.T) {
	if v, ok := Percentile(seq(9), 90); ok {
		t.Errorf("p90 over 9 samples reported as %v", v)
	}
	if _, ok := Percentile(seq(99), 90); ok {
		t.Error("p90 over 99 samples (9 beyond) reported")
	}
	if v, ok := Percentile(seq(100), 90); !ok || v != 90 {
		t.Errorf("p90 over 100 samples = %v, %v; want 90, true", v, ok)
	}
	if _, ok := Percentile(seq(999), 99); ok {
		t.Error("p99 over 999 samples (9 beyond) reported")
	}
	if v, ok := Percentile(seq(1000), 99); !ok || v != 990 {
		t.Errorf("p99 over 1000 samples = %v, %v; want 990, true", v, ok)
	}
	if _, ok := Percentile(nil, 50); ok {
		t.Error("percentile of nothing reported")
	}
}

func TestBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want int
	}{
		{9, 90, 0}, {1000, 99, 10}, {999, 99, 9}, {20, 50, 10}, {1, 50, 0},
	} {
		if got := Beyond(tc.n, tc.p); got != tc.want {
			t.Errorf("Beyond(%d, %v) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false}, {19, 0, false}, {20, 50, true}, {100, 90, true},
		{999, 90, true}, {1000, 99, true}, {10000, 99.9, true},
	} {
		p, ok := HighestPercentile(tc.n)
		if p != tc.want || ok != tc.ok {
			t.Errorf("HighestPercentile(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.want, tc.ok)
		}
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{10, 11, 9, 10.5, 9.5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Median != 10 || s.Q1 != 9.25 || s.Q3 != 10.75 {
		t.Errorf("Summarize = %+v", s)
	}
}
