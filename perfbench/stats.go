package main

import (
	"fmt"
	"math"
	"slices"
)

// percentile returns the nearest-rank q-quantile (q in (0, 1]) of
// samples: the smallest sample with at least ceil(q·n) samples at or
// below it. It sorts samples in place and returns 0 for an empty slice.
func percentile(samples []uint32, q float64) uint32 {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	return samples[rank(len(samples), q)]
}

// rank is the zero-based index of the nearest-rank q-quantile in a
// sorted slice of n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r - 1
}

// median returns the median of xs (the mean of the two middle values
// for an even count), sorting a copy; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// validName reports whether name is a legal metric or workload name:
// it starts with a letter or digit and holds at most 64 letters,
// digits, '_', '.' and '-'.
func validName(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && (i == 0 || c != '_' && c != '.' && c != '-') {
			return false
		}
	}
	return true
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's named metrics, rejecting illegal names.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) {
	if !validName(name) {
		panic(fmt.Sprintf("perfbench: illegal metric name %q", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // JSON cannot carry NaN/Inf; an empty measurement reads 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}
