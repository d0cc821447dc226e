package main

import (
	"fmt"
	"sort"
)

// endToEndMetrics is what an untraced run reports, on every workload.
var endToEndMetrics = []string{
	"setup_s",
	"lat_p50_ms.low", "lat_p75_ms.low", "lat_p50_ms.high", "lat_p75_ms.high",
	"ok_frac",
	"heap_mb",
	"swap_p50_s",
	"lat_p50_ms.lone", "lat_p75_ms.lone",
}

// perLayerMetrics is what a traced run reports, on every workload.
var perLayerMetrics = []string{
	"loadgen.goodput_rps",
	"loadgen.lag_p99_ms", "loadgen.lag_ms_mean", "loadgen.sent",
	"loadgen.lat_p90_ms.low", "loadgen.lat_p90_ms.high",
	"loadgen.lat_p99_ms.low", "loadgen.lat_p99_ms.high",
	"trace.overhead_frac", "trace.lat_ms_mean", "trace.unattributed_ms_mean",
	"serve.http.self_ms_mean", "serve.http.req_bytes", "serve.http.resp_bytes",
	"proc.alloc_kb_per_req", "proc.gc_cpu_frac",
	"serve.batcher.wait_ms_mean", "serve.batcher.lone_wait_ms_mean", "serve.batcher.mean_batch",
	"serve.batcher.queue_max", "serve.batcher.rejected",
	"registry.predict_ms_mean", "registry.swap.compile_s", "registry.swap.drain_s",
	"registry.owned_mb", "registry.shared_mb", "registry.unowned_heap_mb",
	"registry.heap_mb_per_fresh_version",
	"runtime.run_ms.b1", "runtime.run_ms.b32",
	"runtime.run_ms.b1.dense", "runtime.run_ms.b1.ipe", "runtime.run_ms.b32.dense", "runtime.run_ms.b32.ipe",
	"runtime.unattributed_frac", "runtime.exec.builds",
	"kernel.ipe.ms_per_inf", "kernel.factorized.ms_per_inf", "kernel.dense.ms_per_inf", "kernel.other.ms_per_inf",
	"ipe.adds_per_inf", "ipe.mults_per_inf",
	"parallel.helper_runs", "parallel.inline_fallbacks", "parallel.spawn_wait_us_mean",
	"compile.optimize_ms.lenet5", "compile.optimize_ms.squeezenet",
	"compile.plan_ms.lenet5", "compile.plan_ms.squeezenet",
	"compile.candidates.lenet5", "compile.candidates.squeezenet",
	"ipe.dict.unique_programs", "ipe.dict.unique_mb", "ipe.dict.program_hits",
}

// checkNames fails when a run's metrics differ from the declared set.
func checkNames(got map[string]metric, want []string) error {
	var missing, extra []string
	declared := make(map[string]bool, len(want))
	for _, n := range want {
		declared[n] = true
		if _, ok := got[n]; !ok {
			missing = append(missing, n)
		}
	}
	for n := range got {
		if !declared[n] {
			extra = append(extra, n)
		}
	}
	if len(missing)+len(extra) == 0 {
		return nil
	}
	sort.Strings(extra)
	return fmt.Errorf("metrics differ from the declared set: missing %v, undeclared %v", missing, extra)
}
