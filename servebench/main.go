// Command servebench is the repository's serving benchmark. It boots the
// default inspire-serve stack in-process — LeNet-5 and SqueezeNet compiled
// through obs.CompilePlan with auto implementation selection and one shared
// dictionary store, served by the hot-swap registry behind serve.NewHandler
// with the metrics recorder and pool sizer on — and drives seeded open-loop
// traffic through the handler's ServeHTTP, with no sockets. Every 200 body
// is compared bit for bit with a reference computed out of band.
//
//	bash servebench/run.sh --workload lenet5-open --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 the same
// traffic runs with spans recorded around the benchmark's calls into each
// layer, followed by the goodput ladder, and it prints the per-layer
// metrics instead. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// BENCHMARK.json at the repository root lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "workload seed: schedule, inputs and swap weights derive from it")
	seconds := flag.Int("seconds", 40, "traffic seconds per run")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "servebench: need --workload (one of %v), --seconds >= 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	out, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
	want := endToEndMetrics
	if *trace == 1 {
		want = perLayerMetrics
	}
	if err := checkNames(out.Metrics, want); err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
	printTable(out)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return ns
}

// allModels is what the stack serves, whatever the workload sends.
var allModels = []string{"lenet5", "squeezenet"}

// setupReps is how many times a run builds the stack; setup_s is the median.
const setupReps = 7

// phases splits the run's traffic time. The rounds' low and high phases
// share all of it in untraced runs. Traced runs give them half and the
// goodput ladder the other half, a twenty-fourth per step (ladderBudget
// steps); goodput is not gated, so untraced runs skip the ladder.
func phases(total time.Duration, traced bool) (low, high, rung time.Duration) {
	if traced {
		total /= 2
	}
	return total / (2 * rounds), total / (2 * rounds), total / ladderBudget
}

// spanDir is where traced runs write their spans, relative to the checkout
// root the benchmark runs from.
const spanDir = ".bench_build/spans"

func run(w workload, seed int64, total time.Duration, traced bool) (output, error) {
	low, high, rung := phases(total, traced)
	var p perLayer
	p.heapBase = liveHeapMB()

	// Inputs and references, before the stack exists.
	pool, err := inputPool(w.model, seed, poolSize)
	if err != nil {
		return output{}, err
	}
	b := &bench{w: w, seeds: []uint64{0}}
	if b.bodies, err = encodeBodies(pool); err != nil {
		return output{}, err
	}
	if b.refs, err = buildRefs(w.model, pool); err != nil {
		return output{}, fmt.Errorf("reference check: %w", err)
	}
	probe := pool[0]
	pool = nil
	swaps := swapPlan(seed, rounds)

	// Set-up, several times; the last stack serves the run.
	if traced {
		b.tr = NewTracer()
	}
	var setups []float64
	p.compiles = make(map[string][]float64)
	p.heapNoStack = liveHeapMB()
	for i := 0; i < setupReps; i++ {
		if b.st != nil {
			b.st.reg.Close()
			b.st = nil
			goruntime.GC()
		}
		st, d, err := buildStack(allModels, b.tr)
		if err != nil {
			return output{}, fmt.Errorf("setup: %w", err)
		}
		b.st = st
		setups = append(setups, d.Seconds())
		for m, ds := range st.compiles {
			for _, d := range ds {
				p.compiles[m] = append(p.compiles[m], ms(d))
			}
		}
	}
	defer b.st.reg.Close()
	p.heapSetup = liveHeapMB()

	if traced {
		// A low phase as long as all the rounds' together, without spans,
		// for the tracing overhead.
		pr := b.runPhase("low-untraced", schedule(subSeed(seed, 1), w.low, rounds*low, poolSize), w.low, rounds*low, false)
		p.untracedLowP50 = median(latsOf(pr))
	}

	// Traffic: rounds of a low phase, a high phase, one-at-a-time requests
	// and a fresh swap with its rollback; then, traced, the goodput ladder
	// above high.
	p.traffic0 = capture()
	var lones []phaseResult
	for r := int64(0); r < rounds; r++ {
		p.lows = append(p.lows, b.runPhase("low", schedule(subSeed(seed, 100+r), w.low, low, poolSize), w.low, low, traced))
		p.highs = append(p.highs, b.runPhase("high", schedule(subSeed(seed, 200+r), w.high, high, poolSize), w.high, high, traced))
		w0 := capture()
		lones = append(lones, phaseResult{name: "lone", res: b.lone(loneRequests/rounds, traced)})
		w1 := capture()
		p.swaps = append(p.swaps, b.runSwaps(swaps[2*r:2*r+2])...)
		w2 := capture()
		p.loneSent += loneRequests / rounds
		p.lone = p.lone.add(countsOf(w1, w.model).sub(countsOf(w0, w.model)))
		p.swapUse = p.swapUse.add(usageOf(w2).sub(usageOf(w1)))
	}
	p.phases = append(append(p.phases, p.lows...), p.highs...)

	// low and high are the ladder's first steps. A step that fails runs
	// once more at the same rate, for one ladder step, so one stall of the
	// host does not decide it; the retry's verdict counts.
	var outcomes []rungOutcome
	held := func(name string, rate float64, tag int64, prs ...phaseResult) bool {
		o := b.judge(prs...)
		outcomes = append(outcomes, o)
		if o.pass() {
			return true
		}
		retry := b.runPhase(name+"-retry", schedule(subSeed(seed, tag+10000), rate, rung, poolSize), rate, rung, traced)
		retry.ladder = prs[0].ladder
		p.phases = append(p.phases, retry)
		o = b.judge(retry)
		outcomes = append(outcomes, o)
		return o.pass()
	}
	switch {
	case !traced:
	case !held("low", w.low, 100, p.lows...):
	case !held("high", w.high, 200, p.highs...):
		p.goodput = w.low
	default:
		n := int64(0)
		p.goodput = w.high * climb(func(f float64) bool {
			n++
			name, rate := fmt.Sprintf("x%.3f", f), w.high*f
			pr := b.runPhase(name, schedule(subSeed(seed, 300+n), rate, rung, poolSize), rate, rung, traced)
			pr.ladder = true
			p.phases = append(p.phases, pr)
			return held(name, rate, 300+n, pr)
		})
	}
	p.traffic1 = capture()

	// Correctness and counts. Refusals on ladder steps above high only fail
	// the step: they are how the ladder finds capacity. Every swap counts
	// as an attempt.
	o := output{Correct: true, Metrics: make(map[string]metric)}
	tally := func(rs []reqResult, refusalOK bool) {
		for _, r := range rs {
			o.Attempted++
			if !r.ok && !(refusalOK && r.status == http.StatusTooManyRequests) {
				o.Failed++
			}
		}
	}
	for _, ph := range append(p.phases, lones...) {
		tally(ph.res, ph.ladder)
	}
	o.Attempted += int64(len(swaps))
	o.Failed += int64(len(swaps) - len(p.swaps))
	if b.mismatches.Load() > 0 {
		o.Correct = false
	}
	if e := b.firstErr.Load(); e != nil {
		o.Correct = false
		fmt.Fprintf(os.Stderr, "servebench: first failure: %s\n", *e)
	}
	fmt.Fprintf(os.Stderr, "servebench: %s seed %d: fail_frac %.6f\n", w.name, seed, float64(o.Failed)/float64(o.Attempted))
	if traced {
		fmt.Fprintf(os.Stderr, "servebench: ladder %s; goodput_rps %.1f\n", ladderSummary(outcomes), p.goodput)
	}

	put := func(name string, v float64, unit string) { o.Metrics[name] = metric{v, unit} }
	spanFile := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if traced {
		p.b = b
		p.collectTraffic()
		if err := b.tr.WriteFile(spanFile); err != nil {
			return output{}, fmt.Errorf("writing spans: %w", err)
		}
		b.tr.Reset()
	} else {
		put("setup_s", median(setups), "s")
		for _, l := range []struct {
			name string
			prs  []phaseResult
		}{{"low", p.lows}, {"high", p.highs}, {"lone", lones}} {
			put("lat_p50_ms."+l.name, percentile(latsOf(l.prs...), 0.5), "ms")
			put("lat_p75_ms."+l.name, percentile(latsOf(l.prs...), 0.75), "ms")
		}
		put("ok_frac", 1-float64(o.Failed)/float64(o.Attempted), "fraction")
		var swapS []float64
		for _, s := range p.swaps {
			swapS = append(swapS, s.total.Seconds())
		}
		put("swap_p50_s", median(swapS), "s")
	}

	// Drop the benchmark's own buffers (and spans) before reading the heap
	// the stack keeps.
	b.refs, b.bodies, p.phases, p.lows, p.highs, lones = nil, nil, nil, nil, nil, nil
	p.heapEnd = liveHeapMB()
	if !traced {
		put("heap_mb", p.heapEnd, "MiB")
		return o, nil
	}

	spans, err := readSpans(spanFile)
	if err != nil {
		return output{}, err
	}
	p.collectSpans(spans)
	p.collectMemory()
	if err := p.timeServed(probe); err != nil {
		return output{}, err
	}
	if p.err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", p.err)
		o.Correct = false
	}
	o.Metrics = p.m
	return o, nil
}

func ladderSummary(rs []rungOutcome) string {
	var parts []string
	for _, r := range rs {
		parts = append(parts, fmt.Sprintf("%.0f/s p90 %.2f ms backlog %d pass %v", r.rate, r.p90ms, r.backlogEnd, r.pass()))
	}
	return strings.Join(parts, "; ")
}

// printTable prints the metrics one per line, sorted by name, ahead of the
// JSON line.
func printTable(o output) {
	names := make([]string, 0, len(o.Metrics))
	for n := range o.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.Metrics[n]
		fmt.Printf("%-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("%-40s %14d\n%-40s %14d\n%-40s %14v\n", "attempted", o.Attempted, "failed", o.Failed, "correct", o.Correct)
}
