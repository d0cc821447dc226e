package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// testPlan compiles a tiny conv→flatten→dense model with a compiled batch
// of 1, so request items equal RunBatch chunks.
func testPlan(t *testing.T) *runtime.Plan {
	t.Helper()
	g := graph.New("serve-test", 1, 1, 4, 4)
	spec := tensor.ConvSpec{InC: 1, OutC: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	w := tensor.New(spec.WeightShape()...)
	tensor.FillGaussian(w, tensor.NewRNG(41), 0.5)
	x := g.Conv(g.In, "c", spec, w, nil)
	x = g.Flatten(x, "f")
	fc := tensor.New(3, 2*4*4)
	tensor.FillGaussian(fc, tensor.NewRNG(42), 0.1)
	g.SetOutput(g.Dense(x, "fc", fc, nil))
	plan, err := runtime.Compile(g, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func testInput(seed uint64, items int) *tensor.Tensor {
	in := tensor.New(items, 1, 4, 4)
	tensor.FillGaussian(in, tensor.NewRNG(seed), 1)
	return in
}

// expect runs the plan directly (no batcher) for a reference output.
func expect(t *testing.T, plan *runtime.Plan, in *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	out, err := plan.RunBatch(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameData(t *testing.T, got, want *tensor.Tensor) {
	t.Helper()
	if !got.Shape().Equal(want.Shape()) {
		t.Fatalf("shape %v, want %v", got.Shape(), want.Shape())
	}
	gd, wd := got.Data(), want.Data()
	for i := range wd {
		if gd[i] != wd[i] {
			t.Fatalf("element %d: got %v want %v", i, gd[i], wd[i])
		}
	}
}

// TestBatcherIdleDispatchesImmediately submits one request to an idle
// batcher with a long SLO: with no flush in flight nothing could join the
// batch, so it must dispatch at once, and its output must match a direct
// run bit for bit.
func TestBatcherIdleDispatchesImmediately(t *testing.T) {
	rec := runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	plan := testPlan(t)
	b := NewBatcher("m", plan, Config{MaxBatch: 64, SLO: time.Second})
	defer b.Close()

	in := testInput(1, 1)
	start := time.Now()
	out, err := b.Submit(in)
	if err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited > 500*time.Millisecond {
		t.Fatalf("idle submit took %v against a %v SLO: it waited for companions", waited, time.Second)
	}
	sameData(t, out, expect(t, plan, in))
	ep := rec.Snapshot().Endpoints
	if len(ep) != 1 || ep[0].Flushes != 1 || ep[0].Items != 1 || ep[0].Requests != 1 {
		t.Fatalf("endpoint snapshot = %+v", ep)
	}
	if w := ep[0].Wait; w.Count != 1 || w.MaxNs > ep[0].Latency.MaxNs {
		t.Fatalf("wait %+v against latency %+v", w, ep[0].Latency)
	}
}

// stallFirstFlush makes b's first flush signal entered and then block until
// release closes; later flushes only signal entered.
func stallFirstFlush(b *Batcher) (entered, release chan struct{}) {
	entered = make(chan struct{}, 8)
	release = make(chan struct{})
	var calls atomic.Int32
	b.flushHook = func() {
		entered <- struct{}{}
		if calls.Add(1) == 1 {
			<-release
		}
	}
	return entered, release
}

// enqueue admits one single-item request straight onto b's queue, so the
// test knows its arrival order and that it was admitted when this returns.
func enqueue(b *Batcher, seed uint64) *request {
	r := &request{input: testInput(seed, 1), chunks: 1, start: time.Now(), resp: make(chan result, 1)}
	b.queue <- r
	return r
}

// await receives r's result and checks it against a direct run.
func await(t *testing.T, plan *runtime.Plan, r *request, seed uint64) {
	t.Helper()
	res := <-r.resp
	if res.err != nil {
		t.Fatal(res.err)
	}
	sameData(t, res.out, expect(t, plan, testInput(seed, 1)))
}

// TestBatcherWaitsBehindBusyFlush stalls the first flush with a free second
// slot: the next request must wait for companions rather than dispatch at
// once, and a third request arriving inside the SLO must ride its batch.
func TestBatcherWaitsBehindBusyFlush(t *testing.T) {
	rec := runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	plan := testPlan(t)
	const slo = 200 * time.Millisecond
	b := NewBatcher("m", plan, Config{MaxBatch: 64, SLO: slo, MaxInFlight: 2})
	entered, release := stallFirstFlush(b)

	first := enqueue(b, 1)
	<-entered // the first flush holds one slot; the second stays free

	start := time.Now()
	second := enqueue(b, 2)
	time.Sleep(slo / 4)
	select {
	case <-entered:
		t.Fatal("second request dispatched at once behind a running flush")
	default:
	}
	third := enqueue(b, 3)
	await(t, plan, second, 2)
	if waited := time.Since(start); waited < slo {
		t.Fatalf("second request returned after %v, before the %v SLO", waited, slo)
	}
	await(t, plan, third, 3)
	close(release)
	await(t, plan, first, 1)
	b.Close()

	ep := rec.Snapshot().Endpoints[0]
	if ep.Items != 3 || ep.Flushes != 2 || ep.MaxBatch != 2 {
		t.Fatalf("items %d flushes %d max batch %d, want 3, 2, 2", ep.Items, ep.Flushes, ep.MaxBatch)
	}
}

// TestBatcherZeroSLOImmediateFlush submits with SLO 0: the request must
// not wait out any deadline.
func TestBatcherZeroSLOImmediateFlush(t *testing.T) {
	runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	plan := testPlan(t)
	b := NewBatcher("m", plan, Config{MaxBatch: 64, SLO: 0})
	defer b.Close()

	in := testInput(2, 1)
	start := time.Now()
	out, err := b.Submit(in)
	if err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("SLO-0 submit took %v", waited)
	}
	sameData(t, out, expect(t, plan, in))
}

// TestBatcherOversizedRequest submits a request bigger than MaxBatch: it
// must be admitted whole and produce the full batched output.
func TestBatcherOversizedRequest(t *testing.T) {
	runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	plan := testPlan(t)
	b := NewBatcher("m", plan, Config{MaxBatch: 2, SLO: time.Millisecond})
	defer b.Close()

	in := testInput(3, 7) // 7 chunks > MaxBatch 2
	out, err := b.Submit(in)
	if err != nil {
		t.Fatal(err)
	}
	sameData(t, out, expect(t, plan, in))
}

// TestBatcherCoalesces stalls the only flush slot and queues four more
// requests, three of them after the SLO has expired: the pending batch must
// keep absorbing them while it waits for the slot, so exactly two flushes
// run, and each request still gets its own correct slice of the output.
func TestBatcherCoalesces(t *testing.T) {
	rec := runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	plan := testPlan(t)
	b := NewBatcher("m", plan, Config{MaxBatch: 64, SLO: 5 * time.Millisecond, MaxInFlight: 1})
	entered, release := stallFirstFlush(b)

	reqs := []*request{enqueue(b, 10)}
	<-entered
	reqs = append(reqs, enqueue(b, 11))
	time.Sleep(20 * time.Millisecond) // past the SLO: the batch is waiting on the slot
	for seed := uint64(12); seed < 15; seed++ {
		reqs = append(reqs, enqueue(b, seed))
	}
	// Only the loop receives from the queue, and it is holding the second
	// batch, so an empty queue means the late three joined that batch.
	for deadline := time.Now().Add(5 * time.Second); len(b.queue) > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("%d requests still queued: the batch stopped gathering while blocked on the slot", len(b.queue))
		}
	}
	close(release)
	for i, r := range reqs {
		await(t, plan, r, uint64(10+i))
	}
	b.Close()

	ep := rec.Snapshot().Endpoints[0]
	if ep.Items != 5 || ep.Flushes != 2 || ep.MaxBatch != 4 {
		t.Fatalf("items %d flushes %d max batch %d: want 5, 2 and 4 (the batch stopped gathering while blocked on the slot)",
			ep.Items, ep.Flushes, ep.MaxBatch)
	}
}

// TestBatcherOverload saturates the single flush slot and the one-deep
// queue: the surplus submission must be rejected with ErrOverloaded and
// counted, and the stalled requests must still complete.
func TestBatcherOverload(t *testing.T) {
	rec := runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	plan := testPlan(t)
	b := NewBatcher("m", plan, Config{MaxBatch: 1, SLO: 0, QueueDepth: 1, MaxInFlight: 1})

	entered := make(chan struct{}, 256)
	release := make(chan struct{})
	b.flushHook = func() { entered <- struct{}{}; <-release }

	var wg sync.WaitGroup
	submit := func(seed uint64) chan error {
		ch := make(chan error, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := b.Submit(testInput(seed, 1))
			ch <- err
		}()
		return ch
	}
	// First request: gathered immediately (SLO 0), stalls in the flush
	// hook holding the only flight token.
	pending := []chan error{submit(1)}
	<-entered

	// Keep pushing: the loop gathers at most one more request and blocks on
	// the flight token, one more sits in the queue, and everything beyond
	// that is rejected at admission. Requests that don't come back within
	// the poll window are admitted-and-stalled.
	var overloaded bool
	for i := 0; i < 100 && !overloaded; i++ {
		ch := submit(uint64(100 + i))
		select {
		case err := <-ch:
			if errors.Is(err, ErrOverloaded) {
				overloaded = true
			} else if err != nil {
				t.Fatalf("unexpected error: %v", err)
			} else {
				t.Fatal("request completed while the flush slot was stalled")
			}
		case <-time.After(10 * time.Millisecond):
			pending = append(pending, ch)
		}
	}
	if !overloaded {
		t.Fatal("no submission was rejected with ErrOverloaded")
	}
	close(release)
	wg.Wait()
	b.Close()
	if got := rec.Snapshot().Endpoints[0].RejectedOverload; got == 0 {
		t.Fatal("overload rejection not counted")
	}
	// The stalled request behind the hook completed, and nothing was
	// silently dropped: every pending channel settled with success or — for
	// submissions whose rejection outran the poll window — ErrOverloaded.
	if err := <-pending[0]; err != nil {
		t.Fatalf("stalled request: %v", err)
	}
	for i, ch := range pending[1:] {
		if err := <-ch; err != nil && !errors.Is(err, ErrOverloaded) {
			t.Fatalf("pending request %d: %v", i, err)
		}
	}
}

// TestBatcherShutdownDrain races many submitters against Close: every
// Submit must return exactly once, either a correct result or ErrClosed —
// no drops, no double completions, and the books must balance.
func TestBatcherShutdownDrain(t *testing.T) {
	rec := runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	plan := testPlan(t)
	b := NewBatcher("m", plan, Config{MaxBatch: 4, SLO: time.Millisecond, QueueDepth: 256})
	// Slow each flush a little so the workload reliably outlives Close.
	b.flushHook = func() { time.Sleep(200 * time.Microsecond) }

	in := testInput(5, 1)
	want := expect(t, plan, in)
	const submitters = 32
	const perSubmitter = 20
	var completed, closed, other atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				out, err := b.Submit(in)
				switch {
				case err == nil:
					sameData(t, out, want)
					completed.Add(1)
				case errors.Is(err, ErrClosed):
					closed.Add(1)
				default:
					other.Add(1)
				}
			}
		}()
	}
	// Close mid-flight: once a quarter of the submissions completed, shut
	// down while the rest are still being submitted.
	for completed.Load() < submitters*perSubmitter/4 {
		time.Sleep(100 * time.Microsecond)
	}
	b.Close()
	wg.Wait()

	total := completed.Load() + closed.Load() + other.Load()
	if total != submitters*perSubmitter {
		t.Fatalf("submissions accounted %d, want %d", total, submitters*perSubmitter)
	}
	if other.Load() != 0 {
		t.Fatalf("%d submissions failed with unexpected errors", other.Load())
	}
	if completed.Load() == 0 || closed.Load() == 0 {
		t.Fatalf("race did not exercise both outcomes: completed %d closed %d",
			completed.Load(), closed.Load())
	}
	ep := rec.Snapshot().Endpoints[0]
	if ep.Requests != completed.Load() {
		t.Fatalf("endpoint recorded %d requests, clients saw %d complete", ep.Requests, completed.Load())
	}
	if ep.Items != completed.Load() {
		t.Fatalf("endpoint items %d != completed %d (dropped or double-flushed work)", ep.Items, completed.Load())
	}
	if ep.RejectedClosed != closed.Load() {
		t.Fatalf("endpoint rejected-closed %d, clients saw %d", ep.RejectedClosed, closed.Load())
	}
	// Submit after Close stays rejected.
	if _, err := b.Submit(in); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit error = %v, want ErrClosed", err)
	}
}

// TestBatcherValidation rejects malformed inputs before they occupy queue
// space, with errors that wrap ErrInvalidInput.
func TestBatcherValidation(t *testing.T) {
	plan := testPlan(t)
	b := NewBatcher("m", plan, Config{})
	defer b.Close()
	cases := []struct {
		name  string
		shape []int
	}{
		{"rank", []int{4, 16}},
		{"dims", []int{1, 2, 4, 4}},
	}
	for _, tc := range cases {
		if _, err := b.Submit(tensor.New(tc.shape...)); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%s: error %v, want ErrInvalidInput", tc.name, err)
		}
	}
}

// TestRegistry covers registration, lookup, metrics prefixing, and
// double-registration.
func TestRegistry(t *testing.T) {
	runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	reg := NewRegistry()
	plan := testPlan(t)
	m, err := reg.Register("tiny", plan, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.MetricsPrefix != "tiny/" {
		t.Errorf("metrics prefix = %q", plan.MetricsPrefix)
	}
	if got, ok := reg.Get("tiny"); !ok || got != m {
		t.Error("lookup failed")
	}
	if _, err := reg.Register("tiny", testPlan(t), Config{}); err == nil {
		t.Error("double registration accepted")
	}
	if names := reg.Names(); len(names) != 1 || names[0] != "tiny" {
		t.Errorf("names = %v", names)
	}
	reg.Close()
	if _, err := m.Batcher.Submit(testInput(1, 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after registry close = %v", err)
	}
}
