package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty slice. It sorts a copy.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is
// the rule the acceptance check applies to a set of runs. It needs at
// least two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := i*(n+1) - j*4 // taken after the clamp, as Python does
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// spreadShare is the distance between the quartiles as a share of the
// median; ok is false when it cannot be computed (fewer than two
// values, or a zero median).
func spreadShare(vs []float64) (share float64, ok bool) {
	if len(vs) < 2 {
		return 0, false
	}
	m := median(vs)
	if m == 0 {
		return 0, false
	}
	q1, q3 := quartiles(vs)
	return math.Abs((q3 - q1) / m), true
}

// tailPercentile picks the percentile the bounded latency tail is
// reported at: the highest of 95, 90 and 75 that leaves at least ten
// samples beyond it (50 when none does). The steps are coarse so that a
// run a few samples short of the next step does not report another
// percentile than its neighbour. The steps stop at 95 because a bounded
// metric has to repeat: with a neighbour taking 30% of one of the
// sandbox's two cores for the length of a run, hunt-point's p99 moved by
// 35% and its p95 by 2%. p99 is recorded beside it, unbounded.
func tailPercentile(n int) int {
	for _, p := range []int{95, 90, 75} {
		if n*(100-p) >= 10*100 {
			return p
		}
	}
	return 50
}

// latencies collects one operation's client-side timings.
type latencies struct{ ns []int64 }

func (l *latencies) add(d time.Duration) { l.ns = append(l.ns, int64(d)) }
func (l *latencies) count() int          { return len(l.ns) }

// percentileMs returns the p-th percentile (nearest rank) in ms; the
// receiver is sorted in place.
func (l *latencies) percentileMs(p int) float64 {
	if len(l.ns) == 0 {
		return 0
	}
	slices.Sort(l.ns)
	i := int(math.Ceil(float64(p)/100*float64(len(l.ns)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(l.ns[i]) / 1e6
}

// tailMs reports the tail by the tailPercentile rule and says which
// percentile that was.
func (l *latencies) tailMs() (ms float64, pct int) {
	pct = tailPercentile(len(l.ns))
	return l.percentileMs(pct), pct
}

func medianDur(ds []time.Duration) time.Duration {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = float64(d)
	}
	return time.Duration(median(vs))
}
