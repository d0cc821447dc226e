package main

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"repro/internal/serve"
)

func TestVerifyCatchesOneCorruptedFloat(t *testing.T) {
	ref := []float32{0.1, 0.25, 0.0003, 0.6497}
	// Version 2 loaded fresh weights, version 3 rolled back to the initial
	// ones.
	b := &bench{w: workload{model: "lenet5"}, refs: [][]float32{3: ref}, seeds: []uint64{0, 42, 0}}
	body := func(model string, data []float32, version int64) []byte {
		out, err := json.Marshal(serve.PredictResponse{Model: model, Version: version, Shape: []int{1, 4}, Data: data})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, v := range []int64{1, 3} {
		if err := b.verify(3, body("lenet5", ref, v)); err != nil {
			t.Fatalf("exact response from version %d rejected: %v", v, err)
		}
	}
	for i := range ref {
		bad := append([]float32(nil), ref...)
		bad[i] = math.Float32frombits(math.Float32bits(bad[i]) ^ 1) // one ulp
		if err := b.verify(3, body("lenet5", bad, 1)); err == nil {
			t.Errorf("response with output %d off by one ulp passed", i)
		}
	}
	for _, v := range []int64{0, 2, 4} {
		if err := b.verify(3, body("lenet5", ref, v)); err == nil {
			t.Errorf("response from version %d, which does not serve the initial weights, passed", v)
		}
	}
	if err := b.verify(3, body("squeezenet", ref, 1)); err == nil {
		t.Error("response from another model passed")
	}
	if err := b.verify(3, body("lenet5", ref[:3], 1)); err == nil {
		t.Error("truncated response passed")
	}
	if err := b.verify(3, []byte(`{"model":"lenet5","version":1,"data":[0.1,`)); err == nil {
		t.Error("undecodable response passed")
	}
}

func TestAgreesWithOracle(t *testing.T) {
	oracle := []float64{0.1, 0.7, 0.2}
	if err := agreesWithOracle([]float32{0.1, 0.7, 0.2}, oracle); err != nil {
		t.Errorf("exact output rejected: %v", err)
	}
	if err := agreesWithOracle([]float32{0.1, 0.69, 0.2}, oracle); err == nil {
		t.Error("output 0.01 off passed a 2e-3 tolerance")
	}
	// A near tie may flip the argmax without a real error...
	tie := []float64{0.5, 0.5005, 0}
	if err := agreesWithOracle([]float32{0.5006, 0.5, 0}, tie); err != nil {
		t.Errorf("near tie rejected: %v", err)
	}
	// ...but nothing else may.
	if err := agreesWithOracle([]float32{0.1, 0.7, 0.2}, []float64{0.1, 0.698, 0.7009}); err == nil {
		t.Error("argmax flip beyond the tolerance passed")
	}
}

// TestServedResponsesMatchReferences drives a few requests through a real
// stack, before and after a fresh swap and its rollback, and checks they
// pass the output check.
func TestServedResponsesMatchReferences(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles both models")
	}
	w, _ := workloadByName("lenet5-open")
	pool, err := inputPool("lenet5", 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := buildRefs("lenet5", pool)
	if err != nil {
		t.Fatal(err)
	}
	bodies, err := encodeBodies(pool)
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := buildStack([]string{"lenet5"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.reg.Close()
	b := &bench{w: w, st: st, refs: refs, bodies: bodies, seeds: []uint64{0}}
	send := func() {
		for i := range pool {
			now := time.Now()
			if r := b.do(i, now, now, ""); !r.ok {
				msg := ""
				if e := b.firstErr.Load(); e != nil {
					msg = *e
				}
				t.Errorf("input %d: status %d, %s", i, r.status, msg)
			}
		}
	}
	send()
	if got := b.runSwaps(swapPlan(1, 1)); len(got) != 2 {
		t.Fatalf("%d of 2 swaps succeeded", len(got))
	}
	send()
}
