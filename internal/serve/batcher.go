// Package serve is the network serving front end: a model registry over
// compiled runtime plans, a dynamic batcher that coalesces concurrent
// requests into Plan.RunBatch calls under a latency SLO, and the HTTP
// handler plus load-generator harness built on top of them.
//
// The batcher is the heart of the package. Each model gets one batcher
// goroutine that pulls requests off a bounded admission queue. It is
// work-conserving: when no flush is running, a batch dispatches at once
// with whatever is already queued. Only behind a running flush does a batch
// wait, up to SLO, for companions, and while every flush slot is busy it
// keeps absorbing queued requests up to MaxBatch chunks. Flushes run on a
// bounded number of in-flight RunBatch calls; once the pending batch is
// full and all slots are busy the batcher stalls, the queue fills, and new
// submissions are rejected with ErrOverloaded (HTTP 429) — admission
// control instead of unbounded buffering.
package serve

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// ErrOverloaded rejects a submission because the bounded admission queue is
// full (the executor pool cannot drain flushes fast enough). HTTP maps it
// to 429 Too Many Requests.
var ErrOverloaded = errors.New("serve: overloaded: admission queue full")

// ErrClosed rejects a submission because the batcher is shutting down.
// HTTP maps it to 503 Service Unavailable.
var ErrClosed = errors.New("serve: closed")

// ErrInvalidInput wraps every shape-validation failure of Submit: the
// caller's fault, which HTTP maps to 400 Bad Request.
var ErrInvalidInput = errors.New("serve: invalid input")

// Config tunes one model's dynamic batcher. The zero value serves with the
// documented defaults.
type Config struct {
	// MaxBatch caps a batch's compiled-batch chunk count (default 32). A
	// single request larger than MaxBatch is admitted and flushed alone,
	// never split.
	MaxBatch int
	// SLO is the longest a new batch waits for companions behind a running
	// flush. With no flush in flight a batch dispatches at once whatever
	// SLO says; 0 never waits (bursts that are already queued still
	// coalesce).
	SLO time.Duration
	// QueueDepth bounds the admission queue in requests (default 1024);
	// submissions beyond it fail with ErrOverloaded.
	QueueDepth int
	// Workers is the RunBatch worker count per flush (default GOMAXPROCS).
	Workers int
	// MaxInFlight bounds concurrent RunBatch flushes (default 2): one
	// filling while one drains keeps the executor pool busy without
	// unbounded checkout growth. While all are busy the pending batch keeps
	// absorbing queued requests up to MaxBatch.
	MaxInFlight int
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.Workers <= 0 {
		c.Workers = goruntime.GOMAXPROCS(0)
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2
	}
	return c
}

// request is one submitted inference: its input (batch dim = chunks ×
// compiled batch), the chunk count, when it was submitted, and the channel
// its result comes back on (buffered so the flusher never blocks on
// delivery).
type request struct {
	input  *tensor.Tensor
	chunks int
	start  time.Time
	resp   chan result
}

type result struct {
	out *tensor.Tensor
	err error
}

// Batcher coalesces concurrent Submit calls into Plan.RunBatch batches for
// one model. Create with NewBatcher, stop with Close.
type Batcher struct {
	plan *runtime.Plan
	cfg  Config
	eps  *metrics.EndpointStats // captured once at construction; nil-safe

	queue   chan *request
	done    chan struct{}
	drained chan struct{}
	flight  chan struct{} // in-flight flush semaphore

	mu     sync.RWMutex // guards closed against racing Submit/Close
	closed bool

	flushes sync.WaitGroup

	// flushHook, when non-nil, runs inside each flush goroutine before
	// RunBatch. Test-only: lets tests stall the flush path to force queue
	// pressure and coalescing deterministically.
	flushHook func()
}

// NewBatcher starts the batcher goroutine for plan, registering its
// endpoint metrics series under name (the recorder is resolved once here;
// enable metrics before constructing batchers).
func NewBatcher(name string, plan *runtime.Plan, cfg Config) *Batcher {
	cfg = cfg.withDefaults()
	b := &Batcher{
		plan:    plan,
		cfg:     cfg,
		eps:     metrics.Get().Endpoint(name),
		queue:   make(chan *request, cfg.QueueDepth),
		done:    make(chan struct{}),
		drained: make(chan struct{}),
		flight:  make(chan struct{}, cfg.MaxInFlight),
	}
	go b.loop()
	return b
}

// Plan returns the compiled plan the batcher serves.
func (b *Batcher) Plan() *runtime.Plan { return b.plan }

// Submit enqueues one inference and blocks until its result is ready. The
// input's batch dimension must be a non-zero multiple of the plan's
// compiled batch and every other dimension must match the compiled input
// shape (checked here, so malformed requests never occupy queue space).
// The returned tensor is private to the caller unless the flush carried
// more than one request, in which case it aliases the batch result — either
// way it is the caller's to read and never recycled by the batcher.
//
// Errors: a shape mismatch returns an error wrapping ErrInvalidInput; a
// full queue returns ErrOverloaded; submission after Close returns
// ErrClosed; an execution failure returns RunBatch's error (every request
// of the failed batch gets it).
func (b *Batcher) Submit(input *tensor.Tensor) (*tensor.Tensor, error) {
	chunks, err := b.validate(input)
	if err != nil {
		return nil, err
	}
	req := &request{input: input, chunks: chunks, start: time.Now(), resp: make(chan result, 1)}

	// The read lock pairs with Close's write lock: any Submit that sees
	// closed == false finishes its enqueue before Close proceeds to stop
	// the loop, so an admitted request is never dropped.
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		// eps is nil when the batcher was built with metrics disabled; the
		// counter fields are plain atomics, so guard unlike the nil-safe
		// method calls.
		if b.eps != nil {
			b.eps.RejectedClosed.Add(1)
		}
		return nil, ErrClosed
	}
	select {
	case b.queue <- req:
	default:
		b.mu.RUnlock()
		if b.eps != nil {
			b.eps.RejectedOverload.Add(1)
		}
		return nil, ErrOverloaded
	}
	b.eps.ObserveQueueDepth(len(b.queue))
	b.mu.RUnlock()

	res := <-req.resp
	if res.err != nil {
		if b.eps != nil {
			b.eps.Errors.Add(1)
		}
		return nil, res.err
	}
	now := time.Now()
	b.eps.RecordRequest(now.Sub(req.start).Nanoseconds(), now.UnixNano())
	return res.out, nil
}

// validate checks input against the plan's compiled input shape and
// returns its chunk count.
func (b *Batcher) validate(input *tensor.Tensor) (int, error) {
	inShape := b.plan.Graph.In.OutShape
	if input.Shape().Rank() != inShape.Rank() {
		return 0, fmt.Errorf("%w: rank %d != compiled input %v", ErrInvalidInput, input.Shape().Rank(), inShape)
	}
	for d := 1; d < inShape.Rank(); d++ {
		if input.Dim(d) != inShape[d] {
			return 0, fmt.Errorf("%w: shape %v does not match compiled input %v in dim %d",
				ErrInvalidInput, input.Shape(), inShape, d)
		}
	}
	if input.Dim(0)%inShape[0] != 0 {
		return 0, fmt.Errorf("%w: batch %d is not a multiple of the compiled batch %d",
			ErrInvalidInput, input.Dim(0), inShape[0])
	}
	return input.Dim(0) / inShape[0], nil
}

// Close stops admission (subsequent Submits fail with ErrClosed), drains
// every already-admitted request through normal flushes, waits for their
// results to be delivered, and returns. Safe to call more than once.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.drained
		b.flushes.Wait()
		return
	}
	b.closed = true
	b.mu.Unlock()
	close(b.done)
	<-b.drained
	b.flushes.Wait()
}

// loop is the batcher goroutine: gather a batch, flush it, repeat; on
// shutdown drain the queue through the same flush path.
func (b *Batcher) loop() {
	defer close(b.drained)
	for {
		var first *request
		select {
		case first = <-b.queue:
		case <-b.done:
			b.drain()
			return
		}
		b.gatherAndFlush(first)
	}
}

// drain flushes everything left in the queue after shutdown began. Close
// holds the write lock before closing done, so no Submit can enqueue once
// the queue reads empty here.
func (b *Batcher) drain() {
	for {
		select {
		case first := <-b.queue:
			b.gatherAndFlush(first)
		default:
			return
		}
	}
}

// gatherAndFlush builds a batch behind first and dispatches it. The batcher
// is work-conserving: with no flush in flight the batch leaves at once with
// whatever is already queued, because nothing could gain from waiting. Only
// behind a running flush does it wait up to SLO for companions, and while
// every flush slot is busy it keeps absorbing queued requests (up to
// MaxBatch) until a slot frees. Shutdown ends the SLO wait early.
func (b *Batcher) gatherAndFlush(first *request) {
	batch := []*request{first}
	pending := first.chunks
	// Take whatever the burst already queued.
greedy:
	for pending < b.cfg.MaxBatch {
		select {
		case r := <-b.queue:
			batch = append(batch, r)
			pending += r.chunks
		default:
			break greedy
		}
	}
	// Only the loop acquires flush slots, so an empty semaphore here stays
	// acquirable until dispatch below.
	if len(b.flight) > 0 && pending < b.cfg.MaxBatch && b.cfg.SLO > 0 {
		timer := time.NewTimer(b.cfg.SLO)
	wait:
		for pending < b.cfg.MaxBatch {
			select {
			case r := <-b.queue:
				batch = append(batch, r)
				pending += r.chunks
			case <-timer.C:
				break wait
			case <-b.done:
				break wait
			}
		}
		timer.Stop()
	}
	b.dispatch(batch, pending)
}

// dispatch launches one gathered batch on a flush slot. While all
// MaxInFlight slots are busy the batch keeps absorbing queued requests up
// to MaxBatch chunks; once it is full, the loop blocks on the slot, and
// that stall is the backpressure that fills the queue and trips
// ErrOverloaded.
func (b *Batcher) dispatch(batch []*request, chunks int) {
	for {
		queue := b.queue
		if chunks >= b.cfg.MaxBatch {
			queue = nil // full: only a free slot can proceed
		}
		select {
		case b.flight <- struct{}{}:
			b.flushes.Add(1)
			go func() {
				defer func() {
					<-b.flight
					b.flushes.Done()
				}()
				b.flush(batch, chunks)
			}()
			return
		case r := <-queue:
			batch = append(batch, r)
			chunks += r.chunks
		}
	}
}

// flush joins the batch's inputs, runs them as one RunBatch call, and
// scatters the output back to each request.
func (b *Batcher) flush(batch []*request, chunks int) {
	if b.flushHook != nil {
		b.flushHook()
	}
	if b.eps != nil {
		now := time.Now()
		for _, r := range batch {
			b.eps.RecordWait(now.Sub(r.start).Nanoseconds())
		}
	}
	b.eps.RecordFlush(chunks)

	input := batch[0].input
	if len(batch) > 1 {
		inShape := b.plan.Graph.In.OutShape.Clone()
		inShape[0] *= chunks
		joined := tensor.New(inShape...)
		jd := joined.Data()
		off := 0
		for _, r := range batch {
			off += copy(jd[off:], r.input.Data())
		}
		input = joined
	}

	out, err := b.plan.RunBatch(input, b.cfg.Workers)
	if err != nil {
		for _, r := range batch {
			r.resp <- result{err: err}
		}
		return
	}
	if len(batch) == 1 {
		batch[0].resp <- result{out: out}
		return
	}
	outShape := b.plan.Graph.Out.OutShape
	perChunk := out.NumElements() / chunks
	off := 0
	for _, r := range batch {
		shape := outShape.Clone()
		shape[0] *= r.chunks
		n := r.chunks * perChunk
		r.resp <- result{out: tensor.From(out.Data()[off:off+n], shape...)}
		off += n
	}
}
