package main

import (
	"math"
	"sort"
	"time"
)

// samples collects one metric's per-operation observations.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s *samples) addDur(d time.Duration, unit time.Duration) {
	s.add(float64(d) / float64(unit))
}

func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// median returns the middle value (the mean of the two middle values
// for an even count), or 0 for no samples.
func (s samples) median() float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	v := s.sorted()
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// tailPercentiles are the candidate percentiles for a tail figure,
// highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// tail is a percentile figure together with the sample it rests on.
type tail struct {
	Percentile float64 // 0 when no candidate has ten samples beyond it
	Value      float64
	Samples    int
	Beyond     int // samples strictly after the percentile's rank
}

// tailValue returns the highest candidate percentile that has at least
// ten samples beyond it. Percentiles use the nearest-rank definition:
// the p-th percentile of n sorted samples is the value at rank
// ceil(p/100*n), and the samples beyond it are the n-rank ones after
// that rank.
func (s samples) tailValue() tail {
	n := len(s)
	out := tail{Samples: n}
	if n == 0 {
		return out
	}
	v := s.sorted()
	for _, p := range tailPercentiles {
		// The epsilon keeps float error in p/100*n from bumping an exact
		// rank to the next one.
		rank := int(math.Ceil(p/100*float64(n) - 1e-9))
		if rank < 1 {
			rank = 1
		}
		if n-rank >= 10 {
			out.Percentile, out.Value, out.Beyond = p, v[rank-1], n-rank
			return out
		}
	}
	return out
}

// geomean is the geometric mean of strictly positive values; 0 when
// any value is not positive or there are none.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

// failureRatio is failed operations over attempted ones; a run that
// attempted nothing has failed entirely.
func failureRatio(failed, attempted int) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}
