package main

import (
	"math"
	"sort"
)

// stat summarizes the repetitions of one metric within one run.
type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// summarize returns the median and quartiles of vs. The quartiles use
// the "exclusive" method of Python's statistics.quantiles(n=4), so a
// spread computed here matches one computed over the same values by
// the tooling that compares benchmark runs.
func summarize(vs []float64, unit string) stat {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	st := stat{N: len(s), Unit: unit}
	switch len(s) {
	case 0:
		return st
	case 1:
		st.Median, st.Q1, st.Q3 = s[0], s[0], s[0]
		return st
	}
	st.Median = percentile(s, 0.5)
	st.Q1, st.Q3 = exclusiveQuartile(s, 1), exclusiveQuartile(s, 3)
	return st
}

// exclusiveQuartile is quartile i (1..3) of sorted s (len >= 2).
func exclusiveQuartile(s []float64, i int) float64 {
	const n = 4
	m := len(s) + 1
	j := i * m / n
	j = max(1, min(j, len(s)-1))
	delta := i*m - j*n
	return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
}

// percentile interpolates the p-quantile (0..1) of sorted s.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// median of unsorted vs.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// quantile of unsorted vs.
func quantile(vs []float64, p float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return percentile(s, p)
}

// geomean of positive values.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// harmean of positive values.
func harmean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += 1 / v
	}
	return float64(len(vs)) / sum
}
