package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"repro/internal/conformance"
	"repro/internal/ipe"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// oracleTol is the whole-graph tolerance each reference must meet against
// the float64 oracle (conformance.RefGraph on the plan's effective
// weights), relative to the largest reference magnitude (at least 1): the
// same bound the conformance sweep's graph check uses.
const oracleTol = 2e-3

// inputPool draws the model's seeded pool of distinct serving inputs.
func inputPool(model string, seed int64, n int) ([]*tensor.Tensor, error) {
	in, err := obs.InputFor(model)
	if err != nil {
		return nil, err
	}
	tag := int64(2000)
	if model == "squeezenet" {
		tag = 3000
	}
	rng := tensor.NewRNG(uint64(subSeed(seed, tag)))
	pool := make([]*tensor.Tensor, n)
	for i := range pool {
		pool[i] = tensor.New(in.Shape()...)
		tensor.FillGaussian(pool[i], rng, 1)
	}
	return pool, nil
}

// buildRefs computes the reference outputs out of band: the model's
// initial weights are compiled separately with the serving options (auto
// implementation, its own dictionary store) and every pool input is run
// through Plan.Run. Each reference is validated once against the float64
// oracle. Two workers, one per core.
func buildRefs(model string, pool []*tensor.Tensor) ([][]float32, error) {
	plan, err := obs.CompilePlan(model, 0, runtime.Options{DictStore: ipe.NewDictStore()})
	if err != nil {
		return nil, err
	}
	eff, err := plan.EffectiveWeights()
	if err != nil {
		return nil, err
	}
	refs := make([][]float32, len(pool))
	errs := make([]error, len(pool))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				refs[i], errs[i] = reference(plan, eff, pool[i])
				if errs[i] != nil {
					errs[i] = fmt.Errorf("reference %s input %d: %w", model, i, errs[i])
				}
			}
		}()
	}
	for i := range pool {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// reference runs one input through the plan and checks the output against
// the oracle.
func reference(plan *runtime.Plan, eff map[int]*tensor.Tensor, in *tensor.Tensor) ([]float32, error) {
	out, err := plan.Run(in)
	if err != nil {
		return nil, err
	}
	oracle, err := conformance.RefGraph(plan.Graph, in, eff)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if err := agreesWithOracle(out.Data(), oracle); err != nil {
		return nil, err
	}
	return append([]float32(nil), out.Data()...), nil
}

// agreesWithOracle checks a reference against the float64 oracle: every
// element within oracleTol·max(1, max|oracle|), and the same argmax unless
// the oracle's top two values lie within that tolerance of each other (a
// tie float32 rounding may legitimately break either way).
func agreesWithOracle(got []float32, oracle []float64) error {
	if len(got) != len(oracle) {
		return fmt.Errorf("%d outputs, oracle has %d", len(got), len(oracle))
	}
	scale := 1.0
	for _, v := range oracle {
		scale = math.Max(scale, math.Abs(v))
	}
	tol := oracleTol * scale
	for i := range got {
		if d := math.Abs(float64(got[i]) - oracle[i]); !(d <= tol) {
			return fmt.Errorf("element %d = %g, oracle %g (tolerance %g)", i, got[i], oracle[i], tol)
		}
	}
	ga, oa := argmax32(got), argmax64(oracle)
	if ga != oa && math.Abs(oracle[ga]-oracle[oa]) > tol {
		return fmt.Errorf("argmax %d, oracle argmax %d", ga, oa)
	}
	return nil
}

func argmax32(xs []float32) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

func argmax64(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// predictResponse is the part of serve.PredictResponse the check reads.
type predictResponse struct {
	Model   string    `json:"model"`
	Version int64     `json:"version"`
	Shape   []int     `json:"shape"`
	Data    []float32 `json:"data"`
}

// decodeResponse parses a 200 body.
func decodeResponse(body []byte) (predictResponse, error) {
	var r predictResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return r, fmt.Errorf("undecodable 200 body: %w", err)
	}
	return r, nil
}

// sameBits compares a response's output to its reference bit for bit.
func sameBits(got, want []float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d outputs, reference has %d", len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return fmt.Errorf("output %d = %g, reference %g", i, got[i], want[i])
		}
	}
	return nil
}
