package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// dist is a sorted sample with the helpers the report needs.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// pct returns the nearest-rank p-th percentile (0 < p <= 100), or 0
// for an empty sample.
func (d dist) pct(p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(d)))) - 1
	return d[min(max(i, 0), len(d)-1)]
}

// beyond counts the samples strictly above the nearest-rank p-th
// percentile's rank: the tail a percentile rests on. A p95 is only
// reported as such when at least ten samples lie beyond it.
func (d dist) beyond(p float64) int {
	if len(d) == 0 {
		return 0
	}
	return len(d) - int(math.Ceil(p/100*float64(len(d))))
}

func (d dist) sum() float64 {
	s := 0.0
	for _, x := range d {
		s += x
	}
	return s
}

// sampleNote renders the sample count behind a percentile.
func (d dist) sampleNote(p float64) string {
	return fmt.Sprintf("n=%d, %d beyond p%g", len(d), d.beyond(p), p)
}

// ratio divides, returning 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
