package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

// The p99 of n samples is reported only when at least ten lie beyond it.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	if _, ok := tailPercentile(sample(500), 0.99, 10); ok {
		t.Error("p99 of 500 samples has 5 beyond it; must not be reported")
	}
	v, ok := tailPercentile(sample(1001), 0.99, 10)
	if !ok || !near(v, 990) {
		t.Errorf("p99 of 1001 samples = %v, %v; want 990, true", v, ok)
	}
}

// spread must agree with Python's statistics.quantiles(xs, n=4), which
// the acceptance check uses; the expected values were computed with it.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1.0},
		{[]float64{3, 1, 2}, 1.0},
		{[]float64{0.5, 0.7}, 0.5}, // extrapolated quartiles 0.45 and 0.75
		{[]float64{10, 12, 11, 15, 9, 14, 13, 10, 11, 12}, 0.2826086956521739},
	} {
		if got := spread(c.xs); !near(got, c.want) {
			t.Errorf("spread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// Open-loop latency counts from when a request was due, so a stall
// charges the requests queued behind it; lateness is never negative.
func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	start := time.Unix(100, 0)
	ol := openLoop{start: start, rate: 100} // one request every 10ms
	if got := ol.due(3); !got.Equal(start.Add(30 * time.Millisecond)) {
		t.Fatalf("due(3) = %v", got.Sub(start))
	}
	// Request 3 could only be sent at 55ms, after a stall, and finished at 57ms.
	sent, done := start.Add(55*time.Millisecond), start.Add(57*time.Millisecond)
	if got := ol.latency(3, done); got != 27*time.Millisecond {
		t.Errorf("latency = %v, want 27ms (from due, not from send)", got)
	}
	if got := ol.lateness(3, sent); got != 25*time.Millisecond {
		t.Errorf("lateness = %v, want 25ms", got)
	}
	if got := ol.lateness(3, start.Add(29*time.Millisecond)); got != 0 {
		t.Errorf("early send lateness = %v, want 0", got)
	}
}

func TestSelfTimesAndUnattributed(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "leg", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "solve", Start: 1, End: 5},
		{ID: 3, Parent: 2, Name: "iter", Start: 2, End: 3},
		{ID: 4, Parent: 2, Name: "iter", Start: 3, End: 4.5},
		{ID: 5, Parent: 1, Name: "solve", Start: 5, End: 8},
	}
	self := map[string]float64{}
	for _, r := range selfTimes(spans) {
		self[r.Name] = r.Self
	}
	for name, want := range map[string]float64{"leg": 3, "solve": 4.5, "iter": 2.5} {
		if !near(self[name], want) {
			t.Errorf("self(%s) = %v, want %v", name, self[name], want)
		}
	}
	wall, rest := unattributed(spans, 1)
	if !near(wall, 10) || !near(rest, 3) {
		t.Errorf("unattributed = %v of %v, want 3 of 10", rest, wall)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer(false, "r")
	id := tr.begin("x", 0)
	tr.end(id)
	tr.adopt([]span{{ID: 1, Name: "y"}}, id)
	if len(tr.snapshot()) != 0 {
		t.Error("disabled tracer recorded spans")
	}
	on := newTracer(true, "r")
	p := on.begin("parent", 0)
	on.adopt([]span{{ID: 1, Name: "a"}, {ID: 2, Parent: 1, Name: "b"}}, p)
	got := on.snapshot()
	if len(got) != 3 || got[1].Parent != p || got[2].Parent != got[1].ID || got[2].Run != "r" {
		t.Errorf("adopted spans not grafted under the parent: %+v", got)
	}
}
