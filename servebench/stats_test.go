package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.1, 1}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestPercentileCountsFailuresAsLate(t *testing.T) {
	xs := make([]float64, 0, 20)
	for i := 0; i < 18; i++ {
		xs = append(xs, 1)
	}
	xs = append(xs, math.Inf(1), math.Inf(1)) // 2 of 20 failed
	if got := percentile(append([]float64(nil), xs...), 0.9); got != 1 {
		t.Errorf("p90 with 10%% failed = %v, want 1", got)
	}
	xs = append(xs, math.Inf(1)) // 3 of 21 failed: p90 lands on a failure
	if got := percentile(xs, 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 with 14%% failed = %v, want +Inf", got)
	}
}

func TestClimbFindsTheLastRateThatHolds(t *testing.T) {
	for _, capacity := range []float64{1, 1.2, 3.3, 7.77} {
		var tried []float64
		best := climb(func(f float64) bool {
			tried = append(tried, f)
			return f <= capacity
		})
		if best > capacity {
			t.Errorf("capacity %v: climb returned %v, above it", capacity, best)
		}
		// The answer is within one fine step of the capacity.
		if best*fineStep <= capacity && best*fineStep <= maxFactor {
			t.Errorf("capacity %v: climb returned %v, a fine step short", capacity, best)
		}
		// Each ladder rises and stops at its first failure.
		failures := 0
		for i, f := range tried {
			if f > capacity {
				failures++
				if i+1 < len(tried) && tried[i+1] > f {
					t.Errorf("capacity %v: tried %v after %v failed", capacity, tried[i+1], f)
				}
			}
		}
		if failures > 2 {
			t.Errorf("capacity %v: %d failing steps, want at most one per ladder", capacity, failures)
		}
	}
}

func TestClimbStopsAtTheCap(t *testing.T) {
	n := 0
	best := climb(func(f float64) bool {
		n++
		if f > maxFactor {
			t.Fatalf("tried %v past the cap %v", f, maxFactor)
		}
		return true
	})
	if best > maxFactor || best*fineStep <= maxFactor {
		t.Errorf("climb with no failure = %v, want the last factor under %v", best, maxFactor)
	}
	if n > ladderBudget+4 {
		t.Errorf("%d steps for an unbreakable ladder, budget is %d", n, ladderBudget)
	}
}

func TestClimbWhenNothingAboveHighHolds(t *testing.T) {
	if best := climb(func(float64) bool { return false }); best != 1 {
		t.Errorf("climb = %v, want 1 (high itself)", best)
	}
}

func TestBacklogGrowing(t *testing.T) {
	// 1000 rps at a 10 ms limit allows 2·10+1 outstanding.
	if backlogGrowing(21, 1000, 0.01) {
		t.Error("21 outstanding should be within the allowance")
	}
	if !backlogGrowing(22, 1000, 0.01) {
		t.Error("22 outstanding should count as a growing backlog")
	}
}
