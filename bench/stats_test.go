package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// The tail percentile is the highest candidate with at least ten samples
// beyond it.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n         int
		pct, want float64
	}{
		{39, 50, 20},        // no candidate leaves ten samples: the median
		{40, 75, 30},        // 75th: samples 31..40 lie beyond
		{100, 90, 90},       // 90th: 91..100 beyond; the 95th would leave five
		{200, 95, 190},      // 95th: 191..200 beyond
		{999, 95, 950},      // one short of a supported 99th
		{1000, 99, 990},     // 99th: 991..1000 beyond
		{10000, 99.9, 9990}, // 99.9th
		{100000, 99.99, 99990},
	} {
		pct, got := tail(seq(tc.n))
		if pct != tc.pct || got != tc.want {
			t.Errorf("n=%d: tail = p%v %v, want p%v %v", tc.n, pct, got, tc.pct, tc.want)
		}
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
	if got := geomean([]float64{1, 10, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean = %v, want 10", got)
	}
	// Halving any one entry moves the geomean by the same factor,
	// whichever entry it is: no statement dominates.
	a, b := geomean([]float64{0.5, 10, 100}), geomean([]float64{1, 10, 50})
	if math.Abs(a-b) > 1e-9 {
		t.Errorf("geomean not scale-symmetric: %v vs %v", a, b)
	}
	if got := geomean([]float64{0, 4}); got != 4 {
		t.Errorf("geomean skips non-positive entries: %v", got)
	}
}

// Throughput is the median over whole cycles: one stalled cycle does not
// move it, a compaction between two cycles is in neither, and a trailing
// partial cycle is not counted.
func TestCycleRates(t *testing.T) {
	start := time.Unix(0, 0)
	c := newCollector()
	at := start
	for i := 0; i < 11; i++ { // five cycles of a write and a read, and one operation left over
		step := 100 * time.Millisecond
		if i == 4 {
			step = 5 * time.Second // the machine stalls inside the third cycle
		}
		at = at.Add(step)
		if i%2 == 0 {
			c.done = append(c.done, completion{at: at, written: 4})
		} else {
			c.done = append(c.done, completion{at: at, rows: 20, endsCycle: true})
		}
		if i == 7 {
			at = at.Add(3 * time.Second) // a compaction after the fourth cycle
			c.done = append(c.done, completion{at: at, compact: true})
		}
	}
	ops, rows, written := c.cycleRates(start)
	if len(ops) != 5 || len(rows) != 5 || len(written) != 5 {
		t.Fatalf("%d cycles, want 5", len(ops))
	}
	for i, want := range []float64{10, 10, 2 / 5.1, 10, 10} {
		if math.Abs(ops[i]-want) > 1e-9 {
			t.Errorf("cycle %d: %v operations per second, want %v", i, ops[i], want)
		}
	}
	if got := median(rows); math.Abs(got-100) > 1e-9 {
		t.Errorf("median rows per second = %v, want 100", got)
	}
	if got := median(written); math.Abs(got-20) > 1e-9 {
		t.Errorf("median written rows per second = %v, want 20", got)
	}
}
