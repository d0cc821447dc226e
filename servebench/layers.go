package main

import (
	"fmt"
	"math"
	goruntime "runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// window is the process state at one instant: the recorder's counters,
// bytes allocated so far and CPU seconds spent in GC and in total.
type window struct {
	snap       metrics.Snapshot
	totalAlloc uint64
	gcCPU      float64
	allCPU     float64
}

var cpuSamples = []rtmetrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func capture() window {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	s := append([]rtmetrics.Sample(nil), cpuSamples...)
	rtmetrics.Read(s)
	w := window{snap: metrics.Capture(), totalAlloc: ms.TotalAlloc}
	if s[0].Value.Kind() == rtmetrics.KindFloat64 {
		w.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == rtmetrics.KindFloat64 {
		w.allCPU = s[1].Value.Float64()
	}
	return w
}

// counts is the part of one model's recorder counters that the batcher
// arithmetic needs: executor runs and their total time, items and flushes.
type counts struct{ runs, runNs, items, flushes int64 }

func countsOf(w window, model string) counts {
	ep := endpoint(w.snap, model)
	return counts{w.snap.Exec.RunLatency.Count, w.snap.Exec.RunLatency.SumNs, ep.Items, ep.Flushes}
}

func (c counts) add(d counts) counts {
	return counts{c.runs + d.runs, c.runNs + d.runNs, c.items + d.items, c.flushes + d.flushes}
}

func (c counts) sub(d counts) counts {
	return counts{c.runs - d.runs, c.runNs - d.runNs, c.items - d.items, c.flushes - d.flushes}
}

// usage is what the process spent up to a window that is not counted
// per request: bytes allocated and CPU seconds, in GC and in total.
type usage struct {
	alloc         uint64
	gcCPU, allCPU float64
}

func usageOf(w window) usage { return usage{w.totalAlloc, w.gcCPU, w.allCPU} }

func (u usage) add(d usage) usage {
	return usage{u.alloc + d.alloc, u.gcCPU + d.gcCPU, u.allCPU + d.allCPU}
}

func (u usage) sub(d usage) usage {
	return usage{u.alloc - d.alloc, u.gcCPU - d.gcCPU, u.allCPU - d.allCPU}
}

// meanRunMs is the mean executor Run, per chunk.
func (c counts) meanRunMs() float64 {
	return float64(c.runNs) / math.Max(float64(c.runs), 1) / 1e6
}

// liveHeapMB is the live heap after a full collection, in MiB.
func liveHeapMB() float64 {
	goruntime.GC()
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// layerSums folds a snapshot's layer series into per-layer, per-kernel
// nanosecond sums (mean × count, as the recorder keeps them).
func layerSums(s metrics.Snapshot) map[string]map[string]float64 {
	out := make(map[string]map[string]float64)
	for _, l := range s.Layers {
		m := make(map[string]float64)
		for k, n := range l.Kernels {
			m[k] = float64(n) * float64(l.KernelMeanNs[k])
		}
		out[l.Name] = m
	}
	return out
}

func endpoint(s metrics.Snapshot, name string) metrics.EndpointSnapshot {
	for _, ep := range s.Endpoints {
		if ep.Name == name {
			return ep
		}
	}
	return metrics.EndpointSnapshot{}
}

// kernelFamily maps a recorder kernel tag onto the layers the benchmark
// reports: the IPE executors, value-factorized execution, the dense
// kernels (direct, im2col, GEMM, Winograd) and everything else.
func kernelFamily(k string) string {
	switch k {
	case "ipe-compiled", "ipe-interpreted":
		return "ipe"
	case "factorized":
		return "factorized"
	case "direct", "im2col", "gemm", "winograd":
		return "dense"
	}
	return "other"
}

// perLayer gathers the traced run's per-layer metrics.
type perLayer struct {
	b                  *bench
	traffic0, traffic1 window // around all traffic, one-at-a-time requests and swaps included
	lone               counts // the one-at-a-time requests' share of the traffic window
	swapUse            usage  // the swaps' share of the traffic window
	loneSent           int64
	heapBase           float64 // before anything is built
	heapNoStack        float64 // inputs, bodies and references, no stack
	heapSetup          float64 // the same plus the stack
	heapEnd            float64 // the stack alone, after the run
	compiles           map[string][]float64
	swaps              []swapResult
	phases             []phaseResult // every traffic phase, retries included
	lows, highs        []phaseResult

	goodput                      float64 // the ladder's result
	untracedLowP50, tracedLowP50 float64
	execMs, loneExecMs           float64 // mean executor Run per chunk

	m   map[string]metric
	err error
}

func (p *perLayer) put(name string, v float64, unit string) { p.m[name] = metric{v, unit} }

func (p *perLayer) fail(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

// collectTraffic derives the metrics that need the request results and the
// recorder's counters over the traffic window.
func (p *perLayer) collectTraffic() {
	p.m = make(map[string]metric)
	b, w := p.b, p.b.w

	// Load generator and HTTP bytes.
	var lags []float64
	var sent int64
	var reqBytes, respBytes float64
	for _, ph := range p.phases {
		for _, r := range ph.res {
			lags = append(lags, r.lagMs)
			sent++
			reqBytes += float64(r.reqBytes)
			respBytes += float64(r.respBytes)
		}
	}
	p.put("loadgen.goodput_rps", p.goodput, "1/s")
	p.put("loadgen.lag_p99_ms", percentile(lags, 0.99), "ms")
	p.put("loadgen.lag_ms_mean", mean(lags), "ms")
	p.put("loadgen.sent", float64(sent), "count")
	p.put("loadgen.lat_p90_ms.low", percentile(latsOf(p.lows...), 0.9), "ms")
	p.put("loadgen.lat_p90_ms.high", percentile(latsOf(p.highs...), 0.9), "ms")
	p.put("loadgen.lat_p99_ms.low", percentile(latsOf(p.lows...), 0.99), "ms")
	p.put("loadgen.lat_p99_ms.high", percentile(latsOf(p.highs...), 0.99), "ms")
	p.tracedLowP50 = median(latsOf(p.lows...))
	p.put("serve.http.req_bytes", reqBytes/float64(sent), "B/req")
	p.put("serve.http.resp_bytes", respBytes/float64(sent), "B/req")

	t0, t1 := p.traffic0, p.traffic1
	all := countsOf(t1, w.model).sub(countsOf(t0, w.model))
	openLoop := all.sub(p.lone)
	served := usageOf(t1).sub(usageOf(t0)).sub(p.swapUse)
	p.put("proc.alloc_kb_per_req", float64(served.alloc)/1024/float64(sent+p.loneSent), "KiB/req")
	p.put("proc.gc_cpu_frac", served.gcCPU/math.Max(served.allCPU, 1e-9), "fraction")

	// Batcher counters, open-loop traffic only.
	p.execMs, p.loneExecMs = openLoop.meanRunMs(), p.lone.meanRunMs()
	p.put("serve.batcher.mean_batch", float64(openLoop.items)/math.Max(float64(openLoop.flushes), 1), "items")
	var queueMax, rejected int64
	for _, ep := range t1.snap.Endpoints {
		queueMax = max(queueMax, ep.QueueMax)
		before := endpoint(t0.snap, ep.Name)
		rejected += ep.RejectedOverload + ep.RejectedClosed - before.RejectedOverload - before.RejectedClosed
	}
	p.put("serve.batcher.queue_max", float64(queueMax), "requests")
	p.put("serve.batcher.rejected", float64(rejected), "count")

	// Runtime and kernels.
	sums0, sums1 := layerSums(t0.snap), layerSums(t1.snap)
	fam := make(map[string]float64)
	var layerNs float64
	for name, ks := range sums1 {
		for k, ns := range ks {
			d := ns - sums0[name][k]
			layerNs += d
			if strings.HasPrefix(name, w.model+"@v") {
				fam[kernelFamily(k)] += d
			}
		}
	}
	e0, e1 := t0.snap.Exec, t1.snap.Exec
	runNs := float64(e1.RunLatency.SumNs - e0.RunLatency.SumNs)
	p.put("runtime.unattributed_frac", 1-layerNs/math.Max(runNs, 1), "fraction")
	p.put("runtime.exec.builds", float64(e1.Builds-e0.Builds), "count")
	inf := math.Max(float64(all.items), 1)
	for _, f := range []string{"ipe", "factorized", "dense", "other"} {
		p.put("kernel."+f+".ms_per_inf", fam[f]/inf/1e6, "ms")
	}
	mod, _ := b.st.reg.Model(w.model)
	adds, mults, err := ipeOps(mod.Current().Plan)
	p.fail(err)
	p.put("ipe.adds_per_inf", float64(adds), "count")
	p.put("ipe.mults_per_inf", float64(mults), "count")
	p0, p1 := t0.snap.Pool, t1.snap.Pool
	p.put("parallel.helper_runs", float64(p1.HelperRuns-p0.HelperRuns), "count")
	p.put("parallel.inline_fallbacks", float64(p1.InlineFallbacks-p0.InlineFallbacks), "count")
	p.put("parallel.spawn_wait_us_mean", float64(p1.SpawnWaitNs-p0.SpawnWaitNs)/math.Max(float64(p1.HelperRuns-p0.HelperRuns), 1)/1e3, "us")

	// Compile path and the shared dictionary.
	for _, m := range allModels {
		p.put("compile.plan_ms."+m, median(p.compiles[m]), "ms")
		p.put("compile.optimize_ms."+m, optimizeMs(m), "ms")
		mod, _ := b.st.reg.Model(m)
		cands := 0
		for _, op := range mod.Current().Plan.Ops {
			cands += len(op.Candidates)
		}
		p.put("compile.candidates."+m, float64(cands), "count")
	}
	ds := b.st.dict.Stats()
	p.put("ipe.dict.unique_programs", float64(ds.UniquePrograms), "count")
	p.put("ipe.dict.unique_mb", float64(ds.UniqueBytes)/(1<<20), "MiB")
	p.put("ipe.dict.program_hits", float64(ds.ProgramHits), "count")
}

// collectSpans derives the self-time metrics from the written spans.
func (p *perLayer) collectSpans(spans []Span) {
	p.fail(checkTree(spans))
	req := breakdown(spans, "request")
	p.fail(req.check())
	p.put("trace.overhead_frac", p.tracedLowP50/p.untracedLowP50-1, "fraction")
	p.put("trace.lat_ms_mean", req.MeanNs/1e6, "ms")
	p.put("trace.unattributed_ms_mean", req.SelfMean["unattributed"]/1e6, "ms")
	p.put("serve.http.self_ms_mean", req.SelfMean["serve.http"]/1e6, "ms")
	p.put("registry.predict_ms_mean", req.SelfMean["registry.predict"]/1e6, "ms")
	// Batcher wait: Predict time not spent executing the request's own chunk.
	p.put("serve.batcher.wait_ms_mean", req.SelfMean["registry.predict"]/1e6-p.execMs, "ms")
	lone := breakdown(spans, "lone")
	p.fail(lone.check())
	p.put("serve.batcher.lone_wait_ms_mean", lone.SelfMean["registry.predict"]/1e6-p.loneExecMs, "ms")

	sw := breakdown(spans, "registry.swap")
	p.fail(sw.check())
	p.put("registry.swap.compile_s", sw.SelfMean["registry.compile"]/1e9, "s")
	p.put("registry.swap.drain_s", sw.SelfMean["unattributed"]/1e9, "s")
}

// collectMemory compares the final heap with the registry's residency.
func (p *perLayer) collectMemory() {
	var owned, shared int64
	for _, r := range p.b.st.reg.Residency() {
		owned += r.OwnedBytes
		shared += r.SharedRefs
	}
	p.put("registry.owned_mb", float64(owned)/(1<<20), "MiB")
	p.put("registry.shared_mb", float64(shared)/(1<<20), "MiB")
	stackEnd := p.heapEnd - p.heapBase
	p.put("registry.unowned_heap_mb", stackEnd-float64(owned)/(1<<20), "MiB")
	fresh := 0
	for _, s := range p.swaps {
		if !s.step.rollback {
			fresh++
		}
	}
	p.put("registry.heap_mb_per_fresh_version", (stackEnd-(p.heapSetup-p.heapNoStack))/math.Max(float64(fresh), 1), "MiB")
}

// timeServed times the workload model's served plan and forced-arm plans
// after the load: Plan.Run at batch 1 and RunBatch at 32 items.
func (p *perLayer) timeServed(in *tensor.Tensor) error {
	m := p.b.w.model
	mod, _ := p.b.st.reg.Model(m)
	plans := map[string]*runtime.Plan{"": mod.Current().Plan}
	for _, arm := range []runtime.Impl{runtime.ImplDense, runtime.ImplIPE} {
		plan, err := obs.CompilePlan(m, 0, runtime.Options{Force: arm})
		if err != nil {
			return err
		}
		plans["."+arm.String()] = plan
	}
	batch := in.Shape().Clone()
	batch[0] *= 32
	big := tensor.New(batch...)
	for i := 0; i < 32; i++ {
		copy(big.Data()[i*in.NumElements():], in.Data())
	}
	for suffix, plan := range plans {
		b1, err := timeCalls(15, func() error { _, err := plan.Run(in); return err })
		if err != nil {
			return err
		}
		b32, err := timeCalls(5, func() error { _, err := plan.RunBatch(big, 0); return err })
		if err != nil {
			return err
		}
		p.put("runtime.run_ms.b1"+suffix, b1, "ms")
		p.put("runtime.run_ms.b32"+suffix, b32, "ms")
	}
	return nil
}

// timeCalls runs f once to warm up, then n times, and returns the median
// call in milliseconds.
func timeCalls(n int, f func() error) (float64, error) {
	if err := f(); err != nil {
		return 0, err
	}
	var ds []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, ms(time.Since(t0)))
	}
	return median(ds), nil
}

// optimizeMs times graph.Optimize on freshly built graphs of the model.
func optimizeMs(model string) float64 {
	var ds []float64
	for i := 0; i < 5; i++ {
		g, err := obs.GraphByName(model, 0)
		if err != nil {
			return math.NaN()
		}
		t0 := time.Now()
		if err := graph.Optimize(g); err != nil {
			return math.NaN()
		}
		ds = append(ds, ms(time.Since(t0)))
	}
	return median(ds)
}

// ipeOps counts the scalar additions and multiplications one inference of
// the plan performs in its IPE layers: each program's exact per-vector
// cost times the output positions it is evaluated at.
func ipeOps(plan *runtime.Plan) (adds, mults int64, err error) {
	progs := plan.IPEPrograms()
	next := 0
	for _, op := range plan.Ops {
		// IPEPrograms lists the encoding of every layer that has an IPE
		// candidate, chosen or not; only chosen ones run.
		if _, ok := op.Candidates[runtime.ImplIPE]; !ok {
			continue
		}
		n, positions := 1, int64(1)
		if op.Node.Kind == graph.OpConv {
			n = max(op.Node.Attrs.Conv.Groups, 1)
			positions = int64(op.Node.OutShape[2] * op.Node.OutShape[3])
		}
		if next+n > len(progs) {
			return 0, 0, fmt.Errorf("plan lists %d IPE programs, layers need more", len(progs))
		}
		if op.Impl == runtime.ImplIPE {
			for _, pr := range progs[next : next+n] {
				c := pr.Cost()
				adds += c.Adds * positions
				mults += c.Muls * positions
			}
		}
		next += n
	}
	if next != len(progs) {
		return 0, 0, fmt.Errorf("plan lists %d IPE programs, layers use %d", len(progs), next)
	}
	return adds, mults, nil
}
