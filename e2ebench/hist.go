package main

import "math/bits"

// subBits sets the histogram resolution: 2^subBits linear sub-buckets per
// power of two, so a recorded value is off by at most 1/2^subBits (0.8%).
const subBits = 7

const subCount = 1 << subBits

// hist is a log-linear histogram of non-negative nanosecond durations. It
// records in O(1) without allocating, so the timed phase measures the
// program and not the recorder. Not safe for concurrent use.
type hist struct {
	counts [48 * subCount]int64
	n      int64
}

func bucketOf(v int64) int {
	if v < subCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - subBits - 1
	return (shift+1)*subCount + int(v>>shift) - subCount
}

// bucketRange returns the lower bound and width of bucket i.
func bucketRange(i int) (lo, width float64) {
	if i < subCount {
		return float64(i), 1
	}
	shift := i/subCount - 1
	sub := i%subCount + subCount
	return float64(int64(sub) << shift), float64(int64(1) << shift)
}

func (h *hist) add(v int64) {
	i := bucketOf(v)
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile, interpolated linearly inside its
// bucket (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, w := bucketRange(i)
			return lo + (target-cum)/float64(c)*w
		}
		cum += float64(c)
	}
	lo, w := bucketRange(len(h.counts) - 1)
	return lo + w
}
