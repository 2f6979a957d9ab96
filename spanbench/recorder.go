package main

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile. A tail percentile resting on fewer samples moves with every
// host stall, which is what made the first churn benchmark too noisy.
const minBeyond = 10

// errFewSamples reports a percentile the sample count cannot support.
var errFewSamples = errors.New("too few samples beyond the percentile")

// Samples is a latency recorder of fixed capacity. It is allocated
// during set-up and never grows: Record in the timed phase only stores a
// value, so recording adds no garbage-collector work to what is measured.
type Samples struct {
	v []float64
}

// NewSamples allocates a recorder for up to capacity samples.
func NewSamples(capacity int) *Samples {
	return &Samples{v: make([]float64, 0, capacity)}
}

// Record stores one sample. Every recorder is sized for the samples its
// run takes, so recording past the capacity is a bug, not a reason to
// grow the buffer in the timed phase.
func (s *Samples) Record(x float64) {
	if len(s.v) == cap(s.v) {
		panic(fmt.Sprintf("recorder full at %d samples", cap(s.v)))
	}
	s.v = append(s.v, x)
}

// RecordSince stores the time elapsed since t0 in the recorder's unit
// scale (seconds multiplied by scale, e.g. 1e3 for milliseconds).
func (s *Samples) RecordSince(t0 time.Time, scale float64) {
	s.Record(time.Since(t0).Seconds() * scale)
}

// Len returns the number of recorded samples.
func (s *Samples) Len() int { return len(s.v) }

// Values returns the recorded samples in recording order.
func (s *Samples) Values() []float64 { return s.v }

// Median returns the median of xs (the mean of the two middle values for
// an even count) without reordering xs. It needs at least one sample.
func Median(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("median of no samples")
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m], nil
	}
	return (s[m-1] + s[m]) / 2, nil
}

// Percentile returns the p-th percentile (0 < p < 100) of xs by linear
// interpolation between closest ranks. It refuses a percentile with fewer
// than minBeyond samples above it, so p90 needs 100 samples and p99 needs
// 1000.
func Percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0,100)", p)
	}
	if beyond := samplesBeyond(len(xs), p); beyond < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples: %w (%d < %d)", p, len(xs), errFewSamples, beyond, minBeyond)
	}
	s := sortedCopy(xs)
	return interpolate(s, p/100*float64(len(s)-1)), nil
}

// samplesBeyond counts the samples of n that lie above the p-th
// percentile: n minus the rank it sits at (the tolerance keeps 90% of 100
// at rank 90 despite rounding).
func samplesBeyond(n int, p float64) int {
	return n - int(math.Ceil(float64(n)*p/100-1e-9))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// interpolate reads a fractional rank of a sorted slice.
func interpolate(s []float64, rank float64) float64 {
	lo := int(math.Floor(rank))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (rank-float64(lo))*(s[lo+1]-s[lo])
}

// Histogram records nanosecond durations in fixed memory: log-linear
// buckets with histSub sub-buckets per power of two bound the relative
// bucket width to 1/histSub. It suits an unbounded stream such as the
// reader's route queries, where a sample slice would grow for the whole
// run.
type Histogram struct {
	counts [64 * histSub]uint64
	n      uint64
}

const (
	histSubBits = 8
	histSub     = 1 << histSubBits
)

// Record adds one duration in nanoseconds (negative values count as 0).
func (h *Histogram) Record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histBucket(uint64(ns))]++
	h.n++
}

// Count returns the number of recorded durations.
func (h *Histogram) Count() uint64 { return h.n }

// histBucket maps a value to its bucket: values below histSub map to
// themselves; above, the top histSubBits bits after the leading one pick
// the sub-bucket within the value's power of two.
func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(v) - 1 - histSubBits
	return (exp+1)*histSub + int(v>>uint(exp)) - histSub
}

// histBounds returns bucket b's value range [lo, hi).
func histBounds(b int) (lo, hi float64) {
	if b < histSub {
		return float64(b), float64(b + 1)
	}
	exp := b/histSub - 1
	mant := uint64(b%histSub + histSub)
	return float64(mant << uint(exp)), float64((mant + 1) << uint(exp))
}

// Percentile returns the p-th percentile in nanoseconds, interpolated
// linearly inside its bucket, with the same minimum-tail rule as the
// sample Percentile.
func (h *Histogram) Percentile(p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0,100)", p)
	}
	if beyond := samplesBeyond(int(h.n), p); beyond < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples: %w (%d < %d)", p, h.n, errFewSamples, beyond, minBeyond)
	}
	rank := p / 100 * float64(h.n)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := histBounds(b)
			return lo + (rank-cum)/float64(c)*(hi-lo), nil
		}
		cum += float64(c)
	}
	lo, _ := histBounds(len(h.counts) - 1)
	return lo, nil
}

// describe summarizes a sample set for the run log.
func describe(xs []float64) string {
	if len(xs) == 0 {
		return "n=0"
	}
	s := sortedCopy(xs)
	mean := 0.0
	for _, x := range s {
		mean += x
	}
	mean /= float64(len(s))
	q := func(p float64) float64 { return interpolate(s, p*float64(len(s)-1)) }
	return fmt.Sprintf("n=%d min=%.6g p10=%.6g p25=%.6g p50=%.6g mean=%.6g p75=%.6g p90=%.6g max=%.6g",
		len(s), s[0], q(.1), q(.25), q(.5), mean, q(.75), q(.9), s[len(s)-1])
}
