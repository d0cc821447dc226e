package main

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"
)

// span builds a span for hand-made trees.
func span(id, parent int64, name string, start, end int64) Span {
	return Span{ID: id, Parent: parent, Req: 1, Name: name, Start: start, End: end}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		span(1, 0, "request", 0, 100),
		span(2, 1, "loadgen.lag", 0, 10),
		span(3, 1, "serve.http", 15, 95),
		span(4, 3, "registry.predict", 20, 80),
		// Overlapping children of one parent count once.
		span(5, 0, "swap", 0, 100),
		span(6, 5, "a", 10, 50),
		span(7, 5, "b", 30, 70),
		// A child reaching past its parent is clipped to it.
		span(8, 0, "clip", 0, 50),
		span(9, 8, "late", 40, 90),
	}
	want := map[int64]int64{1: 10, 2: 10, 3: 20, 4: 60, 5: 40, 6: 40, 7: 40, 8: 40, 9: 50}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestBreakdownSumsToMeanPath(t *testing.T) {
	spans := []Span{
		span(1, 0, "request", 0, 100),
		span(2, 1, "loadgen.lag", 0, 10),
		span(3, 1, "serve.http", 15, 95),
		span(4, 3, "registry.predict", 20, 80),
		span(11, 0, "request", 200, 260),
		span(12, 11, "loadgen.lag", 200, 200),
		span(13, 11, "serve.http", 202, 260),
		span(14, 13, "registry.predict", 210, 250),
		span(21, 0, "lone", 0, 5), // another path: ignored
	}
	b := breakdown(spans, "request")
	if b.Roots != 2 || b.MeanNs != 80 {
		t.Fatalf("roots %d mean %v, want 2 and 80", b.Roots, b.MeanNs)
	}
	want := map[string]float64{
		"unattributed":     (10 + 2) / 2.0,
		"loadgen.lag":      (10 + 0) / 2.0,
		"serve.http":       (20 + 18) / 2.0,
		"registry.predict": (60 + 40) / 2.0,
	}
	if !reflect.DeepEqual(b.SelfMean, want) {
		t.Errorf("self means = %v, want %v", b.SelfMean, want)
	}
	if err := b.check(); err != nil {
		t.Error(err)
	}
}

func TestBreakdownCheckCatchesOverlappingSiblings(t *testing.T) {
	// Two children covering the same time are each charged for it, so the
	// self times no longer add up to the path.
	spans := []Span{
		span(1, 0, "request", 0, 100),
		span(2, 1, "x", 0, 60),
		span(3, 1, "y", 40, 100),
	}
	if err := breakdown(spans, "request").check(); err == nil {
		t.Error("check accepted self times that exceed the path")
	}
}

func TestCheckTree(t *testing.T) {
	good := []Span{
		span(1, 0, "request", 0, 100),
		span(2, 1, "loadgen.lag", 0, 10),
		span(3, 1, "serve.http", 15, 95),
		span(4, 3, "registry.predict", 20, 80),
		span(5, 0, "registry.swap", 0, 50),
		span(6, 5, "registry.compile", 0, 40),
	}
	if err := checkTree(good); err != nil {
		t.Fatalf("well-formed trace rejected: %v", err)
	}
	for _, c := range []struct {
		name  string
		spans []Span
	}{
		// Predict could not find its request: its time would land in
		// serve.http's self time, and the sums would still add up.
		{"orphan predict", []Span{
			span(1, 0, "request", 0, 100),
			span(2, 1, "loadgen.lag", 0, 10),
			span(3, 1, "serve.http", 15, 95),
			span(4, 0, "registry.predict", 20, 80),
		}},
		{"predict under an unknown parent", []Span{
			span(1, 0, "lone", 0, 100),
			span(2, 1, "loadgen.lag", 0, 0),
			span(3, 1, "serve.http", 15, 95),
			span(4, 3, "registry.predict", 20, 80),
			span(5, 99, "registry.predict", 20, 80),
		}},
		{"two predicts in one request", []Span{
			span(1, 0, "request", 0, 100),
			span(2, 1, "loadgen.lag", 0, 10),
			span(3, 1, "serve.http", 15, 95),
			span(4, 3, "registry.predict", 20, 50),
			span(5, 3, "registry.predict", 50, 80),
		}},
		{"request without serve.http", []Span{
			span(1, 0, "request", 0, 100),
			span(2, 1, "loadgen.lag", 0, 10),
		}},
		{"stray child of a request", []Span{
			span(1, 0, "request", 0, 100),
			span(2, 1, "loadgen.lag", 0, 10),
			span(3, 1, "serve.http", 15, 95),
			span(4, 3, "registry.predict", 20, 80),
			span(5, 1, "registry.compile", 20, 30),
		}},
		{"swap without its compile", []Span{span(1, 0, "registry.swap", 0, 50)}},
	} {
		if err := checkTree(c.spans); err == nil {
			t.Errorf("%s: checkTree accepted it", c.name)
		}
		// The self-time sums alone do not see these faults.
		if c.name == "orphan predict" {
			if err := breakdown(c.spans, "request").check(); err != nil {
				t.Errorf("%s: expected the sum check to pass, got %v", c.name, err)
			}
		}
	}
}

func TestTracerRoundTrip(t *testing.T) {
	tr := NewTracer()
	root := tr.NewID()
	t0 := tr.origin
	tr.Record(0, root, root, "child", t0.Add(10), t0.Add(20))
	tr.Record(root, 0, root, "request", t0, t0.Add(30))
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := readSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr.Spans()) {
		t.Errorf("read back %v, wrote %v", got, tr.Spans())
	}
	b := breakdown(got, "request")
	if b.MeanNs != 30 || math.Abs(b.SelfMean["child"]-10) > 0 || b.SelfMean["unattributed"] != 20 {
		t.Errorf("breakdown %+v", b)
	}
	var nilTracer *Tracer
	if id := nilTracer.Record(0, 0, 0, "x", t0, t0); id != 0 || nilTracer.Spans() != nil {
		t.Error("a nil tracer recorded a span")
	}
}

func TestGoid(t *testing.T) {
	ids := make(chan int64, 2)
	go func() { ids <- goid() }()
	go func() { ids <- goid() }()
	a, b := <-ids, <-ids
	if a <= 0 || b <= 0 || a == b || goid() == a {
		t.Errorf("goroutine ids %d, %d, %d should be positive and distinct", a, b, goid())
	}
}
