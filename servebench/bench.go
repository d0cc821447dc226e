package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/tensor"
)

// drainTimeout bounds how long a phase may take to finish its outstanding
// requests; a stack that cannot is reported as a failed run.
const drainTimeout = 60 * time.Second

// bench drives one workload at one stack.
type bench struct {
	w  workload
	st *stack
	tr *Tracer // nil in untraced runs

	bodies [][]byte    // pre-encoded request body per pool input
	refs   [][]float32 // expected output per pool input, initial weights
	seeds  []uint64    // weight seed of version v at index v-1

	mismatches atomic.Int64
	firstErr   atomic.Pointer[string]
}

// reqResult is one request's outcome.
type reqResult struct {
	latMs     float64 // due to response; +Inf unless ok
	lagMs     float64 // how late the generator sent it
	status    int
	ok        bool // 200 and the body matched its reference
	reqBytes  int
	respBytes int
}

// phaseResult is one open-loop phase: its rate, every request's outcome,
// and the backlog left when its schedule ended. Ladder steps above high
// may refuse requests with 429 without failing the run: refusals are how
// the ladder finds capacity.
type phaseResult struct {
	name        string
	rate        float64
	res         []reqResult
	outstanding int
	ladder      bool
}

func (b *bench) noteErr(format string, args ...any) {
	s := fmt.Sprintf(format, args...)
	b.firstErr.CompareAndSwap(nil, &s)
}

// encodeBodies pre-encodes every pool input as a predict request, so the
// generator spends no time on JSON.
func encodeBodies(pool []*tensor.Tensor) ([][]byte, error) {
	out := make([][]byte, len(pool))
	for i, in := range pool {
		body, err := json.Marshal(serve.PredictRequest{Data: in.Data()})
		if err != nil {
			return nil, err
		}
		out[i] = body
	}
	return out, nil
}

// runPhase sends the schedule open-loop: each arrival is sent when due on
// its own goroutine, whether or not earlier requests have finished.
// Latency runs from the due time to the response. The phase lasts at least
// d; then the backlog is sampled and every outstanding request awaited.
func (b *bench) runPhase(name string, sched []arrival, rate float64, d time.Duration, traced bool) phaseResult {
	root := ""
	if traced {
		root = "request"
	}
	res := make([]reqResult, len(sched))
	var wg sync.WaitGroup
	var inflight atomic.Int64
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.at)
		if dt := time.Until(due); dt > 0 {
			time.Sleep(dt)
		}
		sent := time.Now()
		wg.Add(1)
		inflight.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			defer inflight.Add(-1)
			res[i] = b.do(a.input, due, sent, root)
		}(i, a)
	}
	if dt := time.Until(start.Add(d)); dt > 0 {
		time.Sleep(dt)
	}
	pr := phaseResult{name: name, rate: rate, res: res, outstanding: int(inflight.Load())}
	waitOrDie(&wg, name)
	return pr
}

// waitOrDie waits for wg, failing the run if the stack stops answering.
func waitOrDie(wg *sync.WaitGroup, what string) {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(drainTimeout):
		fmt.Fprintf(os.Stderr, "servebench: %s: requests still outstanding after %v\n", what, drainTimeout)
		os.Exit(1)
	}
}

// do sends one request through the handler in-process and checks the body.
// A non-empty root traces it: spans around the generator's lag, ServeHTTP
// and Predict under a root span of that name covering due to response.
func (b *bench) do(input int, due, sent time.Time, root string) reqResult {
	traced := root != ""
	body := b.bodies[input]
	r := reqResult{lagMs: ms(sent.Sub(due)), reqBytes: len(body), latMs: math.Inf(1)}
	req, err := http.NewRequest(http.MethodPost, "/v1/models/"+b.w.model+"/predict", bytes.NewReader(body))
	if err != nil {
		b.noteErr("building request: %v", err)
		return r
	}
	rec := httptest.NewRecorder()
	h := b.st.handler
	var reqID, httpID, gid int64
	if traced {
		h = b.st.tracedHandler
		reqID, httpID = b.tr.NewID(), b.tr.NewID()
		gid = goid()
		b.st.traced.bind(gid, httpID, reqID)
	}
	httpStart := time.Now()
	h.ServeHTTP(rec, req)
	end := time.Now()
	if traced {
		b.st.traced.unbind(gid)
		b.tr.Record(0, reqID, reqID, "loadgen.lag", due, sent)
		b.tr.Record(httpID, reqID, reqID, "serve.http", httpStart, end)
		b.tr.Record(reqID, 0, reqID, root, due, end)
	}
	r.status = rec.Code
	r.respBytes = rec.Body.Len()
	if rec.Code != http.StatusOK {
		return r
	}
	if err := b.verify(input, rec.Body.Bytes()); err != nil {
		b.mismatches.Add(1)
		b.noteErr("%s input %d: %v", b.w.model, input, err)
		return r
	}
	r.ok = true
	r.latMs = ms(end.Sub(due))
	return r
}

// verify checks a 200 body against the reference. Requests are only sent
// while the model serves its initial weights (version 1 or a rollback to
// them), so a body from any other version is wrong too.
func (b *bench) verify(input int, body []byte) error {
	resp, err := decodeResponse(body)
	if err != nil {
		return err
	}
	if resp.Model != b.w.model {
		return fmt.Errorf("served by model %q", resp.Model)
	}
	if resp.Version < 1 || resp.Version > int64(len(b.seeds)) || b.seeds[resp.Version-1] != 0 {
		return fmt.Errorf("served by version %d, not one with the initial weights", resp.Version)
	}
	return sameBits(resp.Data, b.refs[input])
}

// lone sends n requests one at a time, each when the previous one has
// answered.
func (b *bench) lone(n int, traced bool) []reqResult {
	root := ""
	if traced {
		root = "lone"
	}
	out := make([]reqResult, 0, n)
	for i := 0; i < n; i++ {
		now := time.Now()
		out = append(out, b.do(i%len(b.bodies), now, now, root))
	}
	return out
}

// swapResult is one timed hot swap.
type swapResult struct {
	step  swapStep
	total time.Duration
}

// runSwaps performs the steps in order with no traffic, each after a GC,
// so a swap's time does not depend on what garbage the traffic left
// behind.
func (b *bench) runSwaps(steps []swapStep) []swapResult {
	var out []swapResult
	for _, s := range steps {
		goruntime.GC()
		total, err := b.st.swap(b.w.model, s.seed)
		if err != nil {
			b.noteErr("swap %s to seed %d: %v", b.w.model, s.seed, err)
			continue
		}
		b.seeds = append(b.seeds, s.seed)
		out = append(out, swapResult{step: s, total: total})
	}
	return out
}

// latsOf lists the latencies of the phases' requests.
func latsOf(prs ...phaseResult) []float64 {
	var out []float64
	for _, pr := range prs {
		for _, r := range pr.res {
			out = append(out, r.latMs)
		}
	}
	return out
}

// judge decides whether phases at one rate pass as a goodput-ladder step:
// the p90 over all their requests (failures counting as infinitely late)
// within the workload's limit, and no phase ending with a growing backlog.
func (b *bench) judge(prs ...phaseResult) rungOutcome {
	o := rungOutcome{rate: prs[0].rate}
	for _, pr := range prs {
		o.backlogEnd = max(o.backlogEnd, pr.outstanding)
	}
	o.p90ms = percentile(latsOf(prs...), 0.9)
	o.withinP90 = o.p90ms <= ms(b.w.limit)
	o.backlogOK = !backlogGrowing(o.backlogEnd, o.rate, b.w.limit.Seconds())
	return o
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
