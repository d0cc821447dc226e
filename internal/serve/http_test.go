package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// newTestServer spins a registry with the tiny plan behind an httptest
// server.
func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Registry) {
	t.Helper()
	reg := NewRegistry()
	if _, err := reg.Register("tiny", testPlan(t), cfg); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(reg))
	t.Cleanup(func() {
		srv.Close()
		reg.Close()
	})
	return srv, reg
}

func TestHTTPPredict(t *testing.T) {
	runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	srv, _ := newTestServer(t, Config{SLO: time.Millisecond})

	in := testInput(51, 2)
	body, _ := json.Marshal(PredictRequest{Shape: in.Shape(), Data: in.Data()})
	resp, err := http.Post(srv.URL+"/v1/models/tiny/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Shape) != 2 || pr.Shape[0] != 2 || pr.Shape[1] != 3 {
		t.Fatalf("output shape %v, want [2 3]", pr.Shape)
	}
	if pr.LatencyNs <= 0 {
		t.Fatalf("latency %d", pr.LatencyNs)
	}
	n := 1
	for _, d := range pr.Shape {
		n *= d
	}
	if n != len(pr.Data) {
		t.Fatalf("data length %d != shape volume %d", len(pr.Data), n)
	}
}

func TestHTTPPredictDefaultsShape(t *testing.T) {
	runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	srv, _ := newTestServer(t, Config{})

	in := testInput(52, 1)
	body, _ := json.Marshal(PredictRequest{Data: in.Data()}) // no shape
	resp, err := http.Post(srv.URL+"/v1/models/tiny/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestHTTPErrors(t *testing.T) {
	runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	srv, reg := newTestServer(t, Config{})

	post := func(path string, body []byte) int {
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}

	good, _ := json.Marshal(PredictRequest{Data: testInput(53, 1).Data()})
	if got := post("/v1/models/nosuch/predict", good); got != http.StatusNotFound {
		t.Errorf("unknown model -> %d, want 404", got)
	}
	if got := post("/v1/models/tiny/predict", []byte("{not json")); got != http.StatusBadRequest {
		t.Errorf("bad json -> %d, want 400", got)
	}
	short, _ := json.Marshal(PredictRequest{Shape: []int{1, 1, 4, 4}, Data: []float32{1, 2}})
	if got := post("/v1/models/tiny/predict", short); got != http.StatusBadRequest {
		t.Errorf("short data -> %d, want 400", got)
	}
	wrong, _ := json.Marshal(PredictRequest{Shape: []int{1, 2, 4, 4}, Data: make([]float32, 32)})
	if got := post("/v1/models/tiny/predict", wrong); got != http.StatusBadRequest {
		t.Errorf("wrong dims -> %d, want 400", got)
	}

	// Draining registry rejects with 503.
	reg.Close()
	if got := post("/v1/models/tiny/predict", good); got != http.StatusServiceUnavailable {
		t.Errorf("closed -> %d, want 503", got)
	}
}

func TestHTTPModelsAndMetrics(t *testing.T) {
	runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	srv, _ := newTestServer(t, Config{MaxBatch: 9})

	info, err := fetchModelInfo(srv.URL, "tiny", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.MaxBatch != 9 || len(info.InputShape) != 4 {
		t.Fatalf("info = %+v", info)
	}

	in := testInput(54, 1)
	body, _ := json.Marshal(PredictRequest{Data: in.Data()})
	if resp, err := http.Post(srv.URL+"/v1/models/tiny/predict", "application/json", bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	snap, err := FetchSnapshot(srv.URL, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Endpoints) != 1 || snap.Endpoints[0].Name != "tiny" || snap.Endpoints[0].Requests != 1 {
		t.Fatalf("snapshot endpoints = %+v", snap.Endpoints)
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

// TestHTTPNonFiniteOutput drives a model whose output overflows to +Inf,
// which JSON cannot spell: the answer must be a 500 carrying the JSON error
// envelope, never a 200 with an empty body.
func TestHTTPNonFiniteOutput(t *testing.T) {
	g := graph.New("overflow", 1, 1, 4, 4)
	x := g.Flatten(g.In, "f")
	fc := tensor.New(3, 16)
	for i := range fc.Data() {
		fc.Data()[i] = 1e30
	}
	g.SetOutput(g.Dense(x, "fc", fc, nil))
	plan, err := runtime.Compile(g, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if _, err := reg.Register("overflow", plan, Config{}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(reg))
	defer func() {
		srv.Close()
		reg.Close()
	}()

	data := make([]float32, 16)
	for i := range data {
		data[i] = 1e10 // 16 × 1e10 × 1e30 overflows float32
	}
	body, _ := json.Marshal(PredictRequest{Data: data})
	resp, err := http.Post(srv.URL+"/v1/models/overflow/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("error body does not decode: %v", err)
	}
	if !strings.Contains(eb.Error, "encoding response") {
		t.Fatalf("error envelope %q", eb.Error)
	}
}
