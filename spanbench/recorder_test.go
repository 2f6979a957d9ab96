package main

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestRecordingDoesNotAllocate(t *testing.T) {
	const runs = 1000
	s := NewSamples(2 * (runs + 1)) // AllocsPerRun adds one warm-up call
	var h Histogram
	t0 := time.Now()
	allocs := testing.AllocsPerRun(runs, func() {
		s.Record(1.5)
		s.RecordSince(t0, 1e3)
		h.Record(1234)
	})
	if allocs != 0 {
		t.Fatalf("recording allocated %v times per call", allocs)
	}
	if s.Len() != cap(s.Values()) || h.Count() != runs+1 {
		t.Fatalf("recorded %d samples into capacity %d, %d into the histogram", s.Len(), cap(s.Values()), h.Count())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("recording past the capacity did not panic")
		}
	}()
	s.Record(1)
}

func TestPercentileRefusesThinTail(t *testing.T) {
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
		{99, 90, false}, {100, 90, true},
		{999, 99, false}, {1000, 99, true},
		{19, 50, false}, {20, 50, true},
	} {
		_, err := Percentile(seq(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("p%v of %d samples: err %v, want ok=%v", c.p, c.n, err, c.ok)
		}
		if err != nil && !errors.Is(err, errFewSamples) {
			t.Errorf("p%v of %d samples: err %v, want errFewSamples", c.p, c.n, err)
		}
		var h Histogram
		for _, x := range seq(c.n) {
			h.Record(int64(x))
		}
		if _, err := h.Percentile(c.p); (err == nil) != c.ok {
			t.Errorf("histogram p%v of %d samples: err %v, want ok=%v", c.p, c.n, err, c.ok)
		}
	}
}

func TestPercentileAndMedianValues(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted input
	}
	if p, err := Percentile(xs, 90); err != nil || math.Abs(p-90.1) > 1e-9 {
		t.Fatalf("p90 = %v, %v; want 90.1", p, err)
	}
	if xs[0] != 100 {
		t.Fatal("Percentile reordered its input")
	}
	if m, err := Median(xs); err != nil || m != 50.5 {
		t.Fatalf("median = %v, %v; want 50.5", m, err)
	}
	if m, err := Median([]float64{3, 1, 2}); err != nil || m != 2 {
		t.Fatalf("median = %v, %v; want 2", m, err)
	}
	if _, err := Median(nil); err == nil {
		t.Fatal("median of no samples succeeded")
	}
}

func TestHistogramPercentileWithinBucketWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Histogram
	xs := make([]float64, 20000)
	for i := range xs {
		v := int64(math.Exp(rng.Float64()*12)) + 100 // 100 ns … 160 µs
		xs[i] = float64(v)
		h.Record(v)
	}
	sort.Float64s(xs)
	for _, p := range []float64{50, 90, 99} {
		got, err := h.Percentile(p)
		if err != nil {
			t.Fatal(err)
		}
		want := xs[int(p/100*float64(len(xs)))]
		if math.Abs(got-want)/want > 2.0/histSub {
			t.Errorf("p%v = %v, exact %v: off by more than two bucket widths", p, got, want)
		}
	}
}

func TestHistogramBucketsRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 255, 256, 257, 511, 512, 1000, 123456789, 1 << 40} {
		lo, hi := histBounds(histBucket(v))
		if float64(v) < lo || float64(v) >= hi {
			t.Errorf("value %d outside its bucket [%v, %v)", v, lo, hi)
		}
	}
}
