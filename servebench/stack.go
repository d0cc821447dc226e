package main

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ipe"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// Serving configuration of inspire-serve's default flags.
var serveConfig = serve.Config{
	MaxBatch:    32,
	SLO:         2 * time.Millisecond,
	QueueDepth:  4096,
	MaxInFlight: 2,
	Workers:     0, // GOMAXPROCS
}

const poolResize = 5 * time.Second

// stack is one instance of the default serving stack: both models compiled
// through obs.CompilePlan with auto implementation selection and one
// shared dictionary store, served by the hot-swap registry behind
// serve.NewHandler, with the metrics recorder on.
type stack struct {
	reg     *registry.Registry
	dict    *ipe.DictStore
	handler http.Handler

	// traced is the same registry behind a handler whose provider records a
	// span around every Predict call; built after setup is timed.
	traced        *tracedProvider
	tracedHandler http.Handler

	tr *Tracer
	// parent is the span the next compile nests under (setup Add or a
	// Swap); the benchmark loads versions one at a time.
	parent atomic.Int64

	mu       sync.Mutex
	compiles map[string][]time.Duration // CompileFunc durations per model
}

// buildStack constructs the stack and returns it with the time from the
// start of construction until every model is served.
func buildStack(models []string, tr *Tracer) (*stack, time.Duration, error) {
	s := &stack{tr: tr, compiles: make(map[string][]time.Duration)}
	start := time.Now()
	runtime.EnableMetrics()
	s.dict = ipe.NewDictStore()
	opts := runtime.Options{Force: runtime.ImplAuto, DictStore: s.dict}
	reg, err := registry.New(registry.Options{
		Compile:   func(model string, seed uint64) (*runtime.Plan, error) { return s.compile(model, seed, opts) },
		Serve:     serveConfig,
		DictStore: s.dict,
	})
	if err != nil {
		return nil, 0, err
	}
	s.reg = reg
	for _, m := range models {
		id := tr.NewID()
		s.parent.Store(id)
		t0 := time.Now()
		if _, err := reg.Add(m, 0); err != nil {
			reg.Close()
			return nil, 0, err
		}
		tr.Record(id, 0, id, "registry.add", t0, time.Now())
	}
	reg.StartPoolSizer(poolResize)
	s.handler = serve.NewHandler(reg)
	setup := time.Since(start)

	s.traced = &tracedProvider{Registry: reg, tr: tr}
	s.tracedHandler = serve.NewHandler(s.traced)
	return s, setup, nil
}

// compile is the registry's CompileFunc: obs.CompilePlan, timed.
func (s *stack) compile(model string, seed uint64, opts runtime.Options) (*runtime.Plan, error) {
	t0 := time.Now()
	plan, err := obs.CompilePlan(model, seed, opts)
	t1 := time.Now()
	s.mu.Lock()
	s.compiles[model] = append(s.compiles[model], t1.Sub(t0))
	s.mu.Unlock()
	p := s.parent.Load()
	s.tr.Record(0, p, p, "registry.compile", t0, t1)
	return plan, err
}

// swap hot-swaps model to seed and returns how long Registry.Swap took.
func (s *stack) swap(model string, seed uint64) (time.Duration, error) {
	id := s.tr.NewID()
	s.parent.Store(id)
	t0 := time.Now()
	_, err := s.reg.Swap(model, seed)
	t1 := time.Now()
	s.tr.Record(id, 0, id, "registry.swap", t0, t1)
	return t1.Sub(t0), err
}

// tracedProvider is the registry with a span around each Predict. The
// embedded registry keeps Names, Info and the version-load routes.
type tracedProvider struct {
	*registry.Registry
	tr *Tracer

	mu    sync.Mutex
	byGID map[int64][2]int64 // goroutine id -> (parent span, request id)
}

// bind tells Predict calls on goroutine gid which span they nest under.
func (p *tracedProvider) bind(gid, parent, req int64) {
	p.mu.Lock()
	if p.byGID == nil {
		p.byGID = make(map[int64][2]int64)
	}
	p.byGID[gid] = [2]int64{parent, req}
	p.mu.Unlock()
}

func (p *tracedProvider) unbind(gid int64) {
	p.mu.Lock()
	delete(p.byGID, gid)
	p.mu.Unlock()
}

// Predict implements serve.Provider.
func (p *tracedProvider) Predict(name string, input *tensor.Tensor) (*tensor.Tensor, int64, error) {
	gid := goid()
	p.mu.Lock()
	ctx := p.byGID[gid]
	p.mu.Unlock()
	t0 := time.Now()
	out, v, err := p.Registry.Predict(name, input)
	p.tr.Record(0, ctx[0], ctx[1], "registry.predict", t0, time.Now())
	return out, v, err
}
