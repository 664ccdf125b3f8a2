package main

import (
	"math"
	"math/bits"
	"sort"
)

// tailPerMille returns the highest percentile, in per-mille, from the ladder
// p99.9, p99, p90, p50 that still has at least ten of n samples beyond it —
// the rule every *_p99_* metric follows when a run has too few samples for a
// true p99. It returns 0 when even the median has fewer than ten beyond.
func tailPerMille(n int) int {
	for _, pm := range []int{999, 990, 900, 500} {
		if n-(pm*n+999)/1000 >= 10 {
			return pm
		}
	}
	return 0
}

// reportedTail is the tail percentile, in per-mille, reported under a *_p99
// name: p99 when the samples support it, else the highest lower percentile
// that does.
func reportedTail(n int) int { return min(990, tailPerMille(n)) }

// quantile returns the q-quantile of sorted by linear interpolation between
// the closest ranks (0 for an empty slice).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	f := pos - float64(i)
	return sorted[i]*(1-f) + sorted[i+1]*f
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// summary is a sample set's median and tail, with the tail percentile the
// sample count supports.
type summary struct {
	n         int
	p50, tail float64
	tailPM    int // per-mille of tail; 0 when n is too small for any tail
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := summary{n: len(s), p50: quantile(s, 0.5), tailPM: reportedTail(len(s))}
	if sum.tailPM > 0 {
		sum.tail = quantile(s, float64(sum.tailPM)/1000)
	} else {
		sum.tail = quantile(s, 1)
	}
	return sum
}

// lhist is a log-linear histogram of non-negative nanosecond values: exact
// below 64 ns, 32 sub-buckets per power of two above (about 2% bucket
// width). Quantiles interpolate by rank inside a bucket, so they vary
// continuously rather than snapping to bucket edges. Not safe for concurrent
// use: each delivery goroutine owns its own and they are merged at the end.
type lhist struct {
	counts []uint32
	n      int64
}

const (
	lhExact = 64
	lhBits  = 5 // log2 of the sub-buckets per power of two
	lhSub   = 1 << lhBits
	lhExp0  = 6 // log2(lhExact)
)

func lhBucket(v int64) int {
	if v < lhExact {
		return int(max(v, 0))
	}
	exp := bits.Len64(uint64(v)) - 1
	sub := int(v>>(exp-lhBits)) & (lhSub - 1)
	return lhExact + (exp-lhExp0)*lhSub + sub
}

// lhBounds returns bucket b's [low, high) value range.
func lhBounds(b int) (float64, float64) {
	if b < lhExact {
		return float64(b), float64(b + 1)
	}
	exp := (b-lhExact)/lhSub + lhExp0
	sub := (b - lhExact) % lhSub
	width := math.Ldexp(1, exp-lhBits)
	low := math.Ldexp(1, exp) + float64(sub)*width
	return low, low + width
}

func (h *lhist) record(v int64) {
	b := lhBucket(v)
	if b >= len(h.counts) {
		h.counts = append(h.counts, make([]uint32, b+1-len(h.counts))...)
	}
	h.counts[b]++
	h.n++
}

func (h *lhist) merge(o *lhist) {
	if len(o.counts) > len(h.counts) {
		h.counts = append(h.counts, make([]uint32, len(o.counts)-len(h.counts))...)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in the recorded unit.
func (h *lhist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var cum int64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(cum+int64(c)) > rank {
			lo, hi := lhBounds(b)
			return lo + (hi-lo)*(rank-float64(cum)+0.5)/float64(c)
		}
		cum += int64(c)
	}
	lo, hi := lhBounds(len(h.counts) - 1)
	return (lo + hi) / 2
}

func (h *lhist) summary() summary {
	s := summary{n: int(h.n), p50: h.quantile(0.5), tailPM: reportedTail(int(h.n))}
	if s.tailPM > 0 {
		s.tail = h.quantile(float64(s.tailPM) / 1000)
	} else {
		s.tail = h.quantile(1)
	}
	return s
}

// windowed reduces per-window summaries to their medians: a run reports the
// typical window, so one stalled second (a GC cycle, a noisy neighbour)
// moves the result by one rank instead of dragging the pooled tail.
type windowed struct {
	n, minN   int
	p50, tail float64
	tailPM    int
}

func medianOfWindows(ws []summary) windowed {
	out := windowed{minN: -1}
	var p50s, tails []float64
	for _, s := range ws {
		out.n += s.n
		if out.minN < 0 || s.n < out.minN {
			out.minN, out.tailPM = s.n, s.tailPM
		}
		p50s = append(p50s, s.p50)
		tails = append(tails, s.tail)
	}
	out.p50, out.tail = median(p50s), median(tails)
	return out
}
