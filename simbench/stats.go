package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count); NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <=
// 100): the smallest value with at least p% of the samples at or below
// it. The rank is computed in integers, the same rule metrics.Collect
// uses for the p95 wait, so the benchmark can recompute the program's
// figure from job records exactly.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := (len(s)*p + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// budgetRow is one line of a layer budget: work a layer did, either as
// a count times a probed unit cost or as seconds measured directly, and
// the wall time of the run the work was measured in.
type budgetRow struct {
	Layer   string
	What    string
	Count   float64 // units of work in the traced run (0 for a direct span)
	UnitNs  float64 // probed cost of one unit, in nanoseconds
	Seconds float64 // direct measurement; used when Count is 0
	Base    float64 // wall seconds of the run the share is taken of
}

// cost returns the row's seconds: count × unit cost, or the direct span.
func (r budgetRow) cost() float64 {
	if r.Count > 0 {
		return r.Count * r.UnitNs / 1e9
	}
	return r.Seconds
}

// share returns the row's cost as a fraction of its base wall seconds.
func (r budgetRow) share() float64 {
	if r.Base <= 0 {
		return 0
	}
	return r.cost() / r.Base
}

// writeBudget prints the rows as a table of cost, base and share.
func writeBudget(w io.Writer, rows []budgetRow) {
	fmt.Fprintln(w, "layer budget (share of the wall time of the run each row was measured in)")
	fmt.Fprintf(w, "  %-10s %-34s %14s %10s %9s %8s %7s\n", "layer", "work", "count", "unit_ns", "cost_s", "base_s", "share")
	for _, r := range rows {
		count, unit := "-", "-"
		if r.Count > 0 {
			count = fmt.Sprintf("%.0f", r.Count)
			unit = fmt.Sprintf("%.1f", r.UnitNs)
		}
		fmt.Fprintf(w, "  %-10s %-34s %14s %10s %9.3f %8.3f %6.1f%%\n",
			r.Layer, r.What, count, unit, r.cost(), r.Base, 100*r.share())
	}
}
