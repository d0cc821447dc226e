package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call made by the benchmark into a layer of the stack.
// Spans of one request (or one swap) share Req; Parent names the span that
// caused this one (0 for a root). Start and End are nanoseconds since the
// tracer's origin.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pay one nil check per call site.
type Tracer struct {
	origin time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []Span
}

// NewTracer starts an empty trace whose clock starts now.
func NewTracer() *Tracer { return &Tracer{origin: time.Now()} }

// NewID reserves a span id, so children can name a parent that is recorded
// only when it ends.
func (t *Tracer) NewID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// Record stores a finished span under a reserved id (0 reserves one) and
// returns the id.
func (t *Tracer) Record(id, parent, req int64, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.NewID()
	}
	s := Span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// Spans returns a copy of every recorded span.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Reset drops the recorded spans.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// WriteFile dumps the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSpans loads a span dump written by WriteFile.
func readSpans(path string) ([]Span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spans []Span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s Span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("reading %s: %w", path, err)
		}
		spans = append(spans, s)
	}
	return spans, nil
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children's intervals (clipped
// to the parent). Self times of a tree whose children nest inside their
// parents sum to the root's duration.
func selfTimes(spans []Span) map[int64]int64 {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the kids' intervals within p.
func covered(p Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// pathBreakdown splits the mean duration of every tree rooted at a span
// named root into per-name mean self times. The root's own self time is
// reported as "unattributed": the part of the path no child span covers.
// Every mean divides by the number of roots, so the values sum to the mean
// root duration exactly (up to float rounding) — the invariant check
// verifies before the numbers are reported.
type pathBreakdown struct {
	Roots    int
	MeanNs   float64
	SelfMean map[string]float64 // span name (or "unattributed") -> mean self ns per root
}

func breakdown(spans []Span, root string) pathBreakdown {
	self := selfTimes(spans)
	byID := make(map[int64]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	// rootOf follows parents to the tree's root, memoized.
	rootOf := make(map[int64]int64, len(spans))
	var find func(id int64) int64
	find = func(id int64) int64 {
		if r, ok := rootOf[id]; ok {
			return r
		}
		s, ok := byID[id]
		r := id
		if ok && s.Parent != 0 {
			if _, known := byID[s.Parent]; known {
				r = find(s.Parent)
			}
		}
		rootOf[id] = r
		return r
	}
	b := pathBreakdown{SelfMean: make(map[string]float64)}
	var total float64
	sums := make(map[string]float64)
	for _, s := range spans {
		r := byID[find(s.ID)]
		if r.Name != root {
			continue
		}
		if s.ID == r.ID {
			b.Roots++
			total += float64(s.dur())
			sums["unattributed"] += float64(self[s.ID])
			continue
		}
		sums[s.Name] += float64(self[s.ID])
	}
	if b.Roots == 0 {
		return b
	}
	b.MeanNs = total / float64(b.Roots)
	for k, v := range sums {
		b.SelfMean[k] = v / float64(b.Roots)
	}
	return b
}

// check verifies the self-time means sum to the mean path duration.
func (b pathBreakdown) check() error {
	sum := 0.0
	for _, v := range b.SelfMean {
		sum += v
	}
	if d := sum - b.MeanNs; d > 1e-6*b.MeanNs+1 || -d > 1e-6*b.MeanNs+1 {
		return fmt.Errorf("trace: self-time means sum to %.0f ns, mean path is %.0f ns", sum, b.MeanNs)
	}
	return nil
}

// shapes lists, for each span name whose children the breakdown relies
// on, how many children of each name it must have — no more, no fewer.
var shapes = map[string]map[string]int{
	"request":       {"loadgen.lag": 1, "serve.http": 1},
	"lone":          {"loadgen.lag": 1, "serve.http": 1},
	"serve.http":    {"registry.predict": 1},
	"registry.add":  {"registry.compile": 1},
	"registry.swap": {"registry.compile": 1},
}

// checkTree verifies the trace has the shape the breakdown assumes: every
// span named in shapes has exactly the children listed there, and every
// registry.predict and registry.compile span has a parent. A Predict call
// the tracing provider could not bind to its request would otherwise be
// left out of the request path silently, its time charged to serve.http.
func checkTree(spans []Span) error {
	byID := make(map[int64]Span, len(spans))
	kids := make(map[int64]map[string]int)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			if kids[s.Parent] == nil {
				kids[s.Parent] = make(map[string]int)
			}
			kids[s.Parent][s.Name]++
		}
	}
	for _, s := range spans {
		if s.Name == "registry.predict" || s.Name == "registry.compile" {
			if _, ok := byID[s.Parent]; !ok {
				return fmt.Errorf("trace: %s span %d has no parent", s.Name, s.ID)
			}
		}
		want, ok := shapes[s.Name]
		if !ok {
			continue
		}
		got := kids[s.ID]
		for name, c := range got {
			if want[name] != c {
				return fmt.Errorf("trace: %s span %d has %d %s children, want %d", s.Name, s.ID, c, name, want[name])
			}
		}
		for name, c := range want {
			if got[name] != c {
				return fmt.Errorf("trace: %s span %d has %d %s children, want %d", s.Name, s.ID, got[name], name, c)
			}
		}
	}
	return nil
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 123 [running]:"). The handler calls Provider.Predict on the
// goroutine that called ServeHTTP, so this is how a Predict span finds the
// request it belongs to without changing the handler. Traced runs only.
func goid() int64 {
	var buf [64]byte
	n := goruntime.Stack(buf[:], false)
	var id int64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}
