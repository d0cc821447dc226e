package main

import (
	"math/rand"
	"time"
)

// workload is one model's open-loop traffic: Poisson arrivals at the low
// rate and at the high rate (and, in traced runs, the ladder steps above
// high), each request a single item drawn from the model's seeded input
// pool. Between the traffic phases the model gets one-at-a-time requests
// and hot swaps with nothing else running.
type workload struct {
	name      string
	model     string
	low, high float64 // requests per second
	// limit is the p90 latency a ladder step must stay within.
	limit time.Duration
}

// The high rates sit near a fifth of the capacity the ladder finds on a
// 2-vCPU host in its fast periods, and under it in its slow ones. Near
// capacity the high-rate latency swings with the host's speed instead of
// the code's.
var workloads = []workload{
	{name: "lenet5-open", model: "lenet5", low: 100, high: 200, limit: 15 * time.Millisecond},
	{name: "squeezenet-open", model: "squeezenet", low: 30, high: 45, limit: 40 * time.Millisecond},
}

const (
	// rounds is how many times a run repeats its low phase, its high phase,
	// a share of its one-at-a-time requests and a pair of hot swaps. The
	// speed of a shared host flips within seconds; interleaving spreads
	// every measurement over the whole run, so each samples the same mix
	// of fast and slow spells instead of one spell each.
	rounds = 10
	// The goodput ladder above high: a coarse ladder, then a fine one
	// between the last coarse rate that held and the first that failed,
	// never past maxFactor times high. The fine step sets the resolution.
	coarseStep = 1.25
	fineStep   = 1.06
	maxFactor  = 12.0
	// ladderBudget is how many ladder steps the run's time is split for.
	ladderBudget = 12
	// poolSize is the number of distinct inputs per model.
	poolSize = 24
	// loneRequests is how many one-at-a-time requests a run sends, split
	// evenly over the rounds.
	loneRequests = 200
)

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// arrival is one scheduled request: when it is due (from the phase start)
// and which pool input it carries.
type arrival struct {
	at    time.Duration
	input int
}

// subSeed derives an independent random seed from the workload seed and a
// purpose tag, so phases never share a random sequence.
func subSeed(seed int64, tag int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(tag)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return int64(x)
}

// schedule builds the open-loop arrivals of one phase: a Poisson process
// at rate over d, each arrival carrying a uniformly drawn pool input. The
// same seed always yields the same schedule.
func schedule(seed int64, rate float64, d time.Duration, pool int) []arrival {
	var out []arrival
	rng := rand.New(rand.NewSource(seed))
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, arrival{at: at, input: rng.Intn(pool)})
	}
}

// swapStep is one scheduled hot swap: the weight seed it loads, and
// whether that seed returns to an earlier version.
type swapStep struct {
	seed     uint64
	rollback bool
}

// swapPlan draws the swaps of n rounds: after each round, a fresh weight
// seed, then a rollback to the initial weights (seed 0), so every round's
// traffic is served by the weights the references were computed with.
func swapPlan(seed int64, n int) []swapStep {
	rng := rand.New(rand.NewSource(subSeed(seed, 1000)))
	used := map[uint64]bool{0: true}
	var out []swapStep
	for i := 0; i < n; i++ {
		fresh := uint64(0)
		for used[fresh] {
			fresh = uint64(rng.Int63n(1<<31)) + 1
		}
		used[fresh] = true
		out = append(out, swapStep{seed: fresh}, swapStep{seed: 0, rollback: true})
	}
	return out
}
