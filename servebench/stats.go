package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs, exact
// over every sample: the smallest value with at least p·n samples at or
// below it. xs is sorted in place. +Inf samples (failed requests) sort last,
// so a percentile above the success rate reads +Inf. Empty input gives NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	k := int(math.Ceil(p*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(xs) {
		k = len(xs) - 1
	}
	return xs[k]
}

// median is the nearest-rank 0.5-quantile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// mean is the arithmetic mean (NaN for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// rungOutcome is one step of the goodput ladder: the offered rate and
// whether the step met the p90 limit without a growing backlog.
type rungOutcome struct {
	rate       float64
	withinP90  bool
	backlogOK  bool
	p90ms      float64 // for the report
	backlogEnd int     // requests still outstanding when the step's schedule ended
}

func (r rungOutcome) pass() bool { return r.withinP90 && r.backlogOK }

// climb searches for the highest multiple of the high rates that holds.
// A coarse ladder rises by coarseStep until a rate fails; a fine ladder
// then rises by fineStep from the last rate that held, up to the one that
// failed. Each ladder stops at its first failure, and neither goes past
// maxFactor. try runs one step and reports whether it held. climb returns
// the highest factor that held (1 when none above high did).
func climb(try func(factor float64) bool) float64 {
	best := 1.0
	for f := coarseStep; f <= maxFactor; f *= coarseStep {
		if !try(f) {
			break
		}
		best = f
	}
	for f := best * fineStep; f < best*coarseStep*0.999 && f <= maxFactor; f *= fineStep {
		if !try(f) {
			break
		}
		best = f
	}
	return best
}

// backlogGrowing reports whether the requests still outstanding when a
// step's schedule ended exceed twice what Little's law allows at the
// step's rate if every request finished right at the limit (rate·limit):
// the queue was growing faster than it drained.
func backlogGrowing(outstanding int, rate, limitSec float64) bool {
	return float64(outstanding) > 2*rate*limitSec+1
}
