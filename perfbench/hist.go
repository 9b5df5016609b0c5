package main

import (
	"math/bits"
	"sort"
	"sync/atomic"
)

// Latency histograms are log-linear: values below 32 ns have a bucket
// each, and every octave above is split into 32 buckets, so a bucket is
// at most 1/32 (about 3%) of its lower bound wide. Quantiles interpolate
// by rank inside the bucket. The memory is fixed, so recording allocates
// nothing and does not show in the heap metric.
const (
	subBits  = 5
	subCount = 1 << subBits
	nBuckets = subCount + (64-subBits)*subCount
)

func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	e := bits.Len64(v) - 1
	sub := int(v>>(e-subBits)) & (subCount - 1)
	return subCount + (e-subBits)*subCount + sub
}

// bucketRange returns the bucket's lower bound and width.
func bucketRange(b int) (lo, width float64) {
	if b < subCount {
		return float64(b), 1
	}
	e := (b-subCount)/subCount + subBits
	sub := (b - subCount) % subCount
	w := float64(uint64(1) << (e - subBits))
	return float64(subCount+sub) * w, w
}

// hist is a single-goroutine histogram of nanosecond values.
type hist struct {
	counts [nBuckets]uint64
	n      uint64
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) > rank {
			lo, w := bucketRange(b)
			return lo + w*(rank-cum+0.5)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := bucketRange(nBuckets - 1)
	return lo + w
}

// atomicHist is a histogram shared by concurrent recorders (the device
// wrapper's read latencies).
type atomicHist struct {
	counts [nBuckets]atomic.Uint64
}

func (h *atomicHist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))].Add(1)
}

func (h *atomicHist) snapshot() *hist {
	out := new(hist)
	for i := range h.counts {
		c := h.counts[i].Load()
		out.counts[i] = c
		out.n += c
	}
	return out
}

// quartiles returns the first quartile, median and third quartile of xs
// by the same exclusive method as Python's statistics.quantiles(n=4), so
// the spread printed here matches the one computed from repeated runs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), median(s), at(0.75)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
