package main

import (
	"math"
	"sort"
)

// median is the middle value, averaging the two middle values of an even
// count (0 for no values).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile: the smallest value with at
// least q of the values at or below it.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// meanOfMedians averages each template's median. A workload mixes
// templates whose latencies differ by orders of magnitude; the pooled median
// of such a mix sits on the boundary between two templates and jumps
// between them, while each template's own median is steady.
func meanOfMedians(byTemplate map[uint8][]float64) float64 {
	if len(byTemplate) == 0 {
		return 0
	}
	var sum float64
	for _, xs := range byTemplate {
		sum += median(xs)
	}
	return sum / float64(len(byTemplate))
}

// nsToMS converts nanoseconds to milliseconds.
func nsToMS(ns float64) float64 { return ns / 1e6 }

// latencies selects one operation's samples, in milliseconds.
func latencies(samples []sample, op opKind) []float64 {
	var out []float64
	for _, s := range samples {
		if s.op == op {
			out = append(out, float64(s.ms))
		}
	}
	return out
}

// byTemplate groups one operation's samples by template.
func byTemplate(samples []sample, op opKind) map[uint8][]float64 {
	out := map[uint8][]float64{}
	for _, s := range samples {
		if s.op == op {
			out[s.tpl] = append(out[s.tpl], float64(s.ms))
		}
	}
	return out
}

// templateP50 is the mean over templates of each template's median.
func templateP50(g []sample) float64 { return meanOfMedians(byTemplate(g, g[0].op)) }

// p90 is the nearest-rank 90th percentile of the samples' latencies.
func p90(g []sample) float64 { return percentile(latencies(g, g[0].op), 0.9) }

// overCycles is the median over the dialogue cycles of one statistic.
func overCycles(cycles []*tally, stat func(*tally) float64) float64 {
	per := make([]float64, 0, len(cycles))
	for _, c := range cycles {
		per = append(per, stat(c))
	}
	return median(per)
}

// opStat applies stat to one operation's samples of a cycle.
func opStat(op opKind, stat func([]sample) float64) func(*tally) float64 {
	return func(t *tally) float64 {
		var g []sample
		for _, s := range t.samples {
			if s.op == op {
				g = append(g, s)
			}
		}
		if len(g) == 0 {
			return 0
		}
		return stat(g)
	}
}
