package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestDeclaredMetricsMatchBenchmarkJSON keeps the metric lists the binary
// checks its output against in step with BENCHMARK.json.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(spec.EndToEnd); !reflect.DeepEqual(got, endToEndMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, binary reports %v", got, endToEndMetrics)
	}
	if got := names(spec.PerLayer); !reflect.DeepEqual(got, perLayerMetrics) {
		t.Errorf("BENCHMARK.json per_layer %v, binary reports %v", got, perLayerMetrics)
	}
	for _, wl := range spec.Workloads {
		if _, ok := workloadByName(wl.Name); !ok {
			t.Errorf("BENCHMARK.json lists workload %q the binary does not know", wl.Name)
		}
	}
}
