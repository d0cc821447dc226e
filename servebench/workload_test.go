package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsSeeded(t *testing.T) {
	a := schedule(7, 100, 3*time.Second, poolSize)
	b := schedule(7, 100, 3*time.Second, poolSize)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 100, 3*time.Second, poolSize)) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i].at < a[i-1].at {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
}

func TestScheduleRate(t *testing.T) {
	d := 20 * time.Second
	s := schedule(3, 200, d, poolSize)
	inputs := map[int]bool{}
	for _, a := range s {
		if a.at < 0 || a.at >= d {
			t.Fatalf("arrival at %v outside [0, %v)", a.at, d)
		}
		inputs[a.input] = true
	}
	// Poisson counts: mean λd, sd √(λd); allow five sd.
	want := 200 * d.Seconds()
	if math.Abs(float64(len(s))-want) > 5*math.Sqrt(want) {
		t.Errorf("sent %d requests, want about %.0f", len(s), want)
	}
	if len(inputs) != poolSize {
		t.Errorf("schedule used %d distinct inputs, pool has %d", len(inputs), poolSize)
	}
}

func TestSwapPlan(t *testing.T) {
	a := swapPlan(5, 4)
	if !reflect.DeepEqual(a, swapPlan(5, 4)) {
		t.Fatal("the same seed gave two different swap plans")
	}
	if reflect.DeepEqual(a, swapPlan(6, 4)) {
		t.Fatal("different seeds gave the same swap plan")
	}
	if len(a) != 8 {
		t.Fatalf("%d swaps for 4 rounds, want 8", len(a))
	}
	fresh := map[uint64]bool{}
	for i := 0; i < len(a); i += 2 {
		f, back := a[i], a[i+1]
		if f.rollback || f.seed == 0 || fresh[f.seed] {
			t.Errorf("swap %d = %+v, want a fresh seed never loaded before", i, f)
		}
		fresh[f.seed] = true
		if !back.rollback || back.seed != 0 {
			t.Errorf("swap %d = %+v, want a rollback to the initial seed 0", i+1, back)
		}
	}
}
