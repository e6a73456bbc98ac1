package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // unsorted on purpose
	}
	return out
}

func TestNearestRankPercentiles(t *testing.T) {
	s := summarize(seq(100))
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := s.pct(c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := summarize(nil).pct(50); got != 0 {
		t.Errorf("empty sample p50 = %v", got)
	}
	if got := summarize([]float64{7}).pct(99); got != 7 {
		t.Errorf("single sample p99 = %v", got)
	}
}

func TestSamplesBeyondAPercentile(t *testing.T) {
	for _, c := range []struct {
		n        int
		p        float64
		beyond   int
		resolved bool
	}{
		{1000, 99, 10, true},
		{999, 99, 9, false},
		{200, 95, 10, true},
		{199, 95, 9, false},
		{20, 50, 10, true},
		{0, 50, 0, false},
	} {
		s := summarize(seq(c.n))
		if got := s.beyond(c.p); got != c.beyond {
			t.Errorf("n=%d: %d samples beyond p%v, want %d", c.n, got, c.p, c.beyond)
		}
		if got := s.resolved(c.p); got != c.resolved {
			t.Errorf("n=%d: p%v resolved = %v, want %v", c.n, c.p, got, c.resolved)
		}
	}
}

func TestMedianAndRatio(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 = %v", m)
	}
	if r := ratio(1, 0); r != 0 {
		t.Errorf("ratio over zero = %v", r)
	}
	if got := ms(1500 * time.Microsecond); got != 1.5 {
		t.Errorf("ms(1.5ms) = %v", got)
	}
}

func TestClosedRateCountsSuccessesOverThePhase(t *testing.T) {
	var out []outcome
	// 30 answers over 4s, the last at 4s; 5 of them failed.
	for i := 1; i <= 30; i++ {
		status := 200
		if i%6 == 0 {
			status = 503
		}
		out = append(out, outcome{done: time.Duration(i) * 4 * time.Second / 30, status: status})
	}
	if got := closedRate(out); math.Abs(got-25.0/4) > 1e-9 {
		t.Errorf("closed rate %v, want 25 successes / 4s", got)
	}
	if got := closedRate(nil); got != 0 {
		t.Errorf("rate %v with no answers", got)
	}
}

func TestWindowedPctIgnoresOneBadWindow(t *testing.T) {
	var out []outcome
	// 1200 requests over 6s, each taking 1ms, except that every request
	// due in the fourth second took 500ms.
	for i := 0; i < 1200; i++ {
		due := time.Duration(i) * 5 * time.Millisecond
		lat := time.Millisecond
		if due >= 3*time.Second && due < 4*time.Second {
			lat = 500 * time.Millisecond
		}
		out = append(out, outcome{due: due, sent: due, done: due + lat, status: 200})
	}
	p95, n, windows := windowedPct(out, 6*time.Second, 95)
	if n != 1200 || windows != 6 {
		t.Fatalf("%d samples in %d windows", n, windows)
	}
	if p95 != 1 {
		t.Errorf("p95 %vms, want 1ms: one stalled window of six must not move it", p95)
	}
	// Too few samples for two windows: one window, the plain percentile.
	if _, _, w := windowedPct(out[:399], 2*time.Second, 95); w != 1 {
		t.Errorf("%d windows for 399 samples", w)
	}
}
