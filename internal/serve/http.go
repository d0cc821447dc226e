package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"repro/internal/metrics"
	"repro/internal/tensor"
)

// PredictRequest is the JSON inference request body. Shape defaults to the
// model's compiled input shape; a request batching k items sends shape with
// dim 0 = k × compiled batch.
type PredictRequest struct {
	Shape []int     `json:"shape,omitempty"`
	Data  []float32 `json:"data"`
}

// PredictResponse is the JSON inference response body. Model and Version
// identify which model instance actually served the request, so load
// drivers can detect mis-routing and verify version monotonicity across
// hot swaps.
type PredictResponse struct {
	Model     string    `json:"model"`
	Version   int64     `json:"version"`
	Shape     []int     `json:"shape"`
	Data      []float32 `json:"data"`
	LatencyNs int64     `json:"latency_ns"`
}

// ModelInfo describes one served model in the /v1/models listing.
type ModelInfo struct {
	Name        string `json:"name"`
	Version     int64  `json:"version,omitempty"`
	InputShape  []int  `json:"input_shape"`
	OutputShape []int  `json:"output_shape"`
	MaxBatch    int    `json:"max_batch"`
	SLONs       int64  `json:"slo_ns"`
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
}

// ErrUnknownModel is returned by Provider.Predict for names that are not
// served (HTTP 404).
var ErrUnknownModel = errors.New("serve: unknown model")

// Provider is what the HTTP front end serves: a set of named models that
// answer predict requests. The single-version Registry implements it
// directly; the versioned hot-swap registry (internal/registry) implements
// it with swap-aware routing.
type Provider interface {
	// Names lists the served model names, sorted.
	Names() []string
	// Info describes one served model.
	Info(name string) (ModelInfo, bool)
	// Predict runs one request through the named model, returning the
	// output and the model version that served it. Unknown names return
	// ErrUnknownModel.
	Predict(name string, input *tensor.Tensor) (*tensor.Tensor, int64, error)
}

// muxExtender is implemented by providers that install extra routes (the
// versioned registry adds its version-load and per-model metrics
// endpoints). NewHandler calls it after mounting the base routes.
type muxExtender interface {
	ExtendMux(mux *http.ServeMux)
}

// NewHandler builds the serving mux over the provider:
//
//	GET  /healthz                   liveness probe
//	GET  /v1/models                 model listing with shapes
//	POST /v1/models/{model}/predict JSON inference through the batcher
//	GET  /metrics                   live metrics.Snapshot JSON (the same
//	                                schema inspire-stats -json emits)
//
// Providers implementing ExtendMux(*http.ServeMux) get to add routes (e.g.
// POST /v1/models/{model}/versions on the hot-swap registry).
func NewHandler(p Provider) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, _ *http.Request) {
		infos := make([]ModelInfo, 0)
		for _, name := range p.Names() {
			if info, ok := p.Info(name); ok {
				infos = append(infos, info)
			}
		}
		WriteJSON(w, http.StatusOK, map[string]any{"models": infos})
	})
	mux.HandleFunc("POST /v1/models/{model}/predict", func(w http.ResponseWriter, r *http.Request) {
		handlePredict(p, w, r)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		metrics.Capture().WriteJSON(w)
	})
	if ext, ok := p.(muxExtender); ok {
		ext.ExtendMux(mux)
	}
	return mux
}

func handlePredict(p Provider, w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("model")
	info, ok := p.Info(name)
	if !ok {
		WriteJSON(w, http.StatusNotFound, errorBody{Error: "unknown model"})
		return
	}
	var req PredictRequest
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(&req); err != nil {
		WriteJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	shape := req.Shape
	if len(shape) == 0 {
		shape = info.InputShape
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			WriteJSON(w, http.StatusBadRequest, errorBody{Error: "non-positive dimension in shape"})
			return
		}
		n *= d
	}
	if n != len(req.Data) {
		WriteJSON(w, http.StatusBadRequest, errorBody{
			Error: "data length does not match shape"})
		return
	}

	input := tensor.From(req.Data, shape...)
	start := time.Now()
	out, version, err := p.Predict(name, input)
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrUnknownModel):
			status = http.StatusNotFound
		case errors.Is(err, ErrOverloaded):
			status = http.StatusTooManyRequests
			w.Header().Set("Retry-After", "1")
		case errors.Is(err, ErrClosed):
			status = http.StatusServiceUnavailable
		case errors.Is(err, ErrInvalidInput):
			status = http.StatusBadRequest
		}
		WriteJSON(w, status, errorBody{Error: err.Error()})
		return
	}
	WriteJSON(w, http.StatusOK, PredictResponse{
		Model:     name,
		Version:   version,
		Shape:     out.Shape(),
		Data:      out.Data(),
		LatencyNs: time.Since(start).Nanoseconds(),
	})
}

// WriteJSON answers status with v as a JSON body; every route of the
// serving mux, including the ones providers add, answers through it. It
// encodes before writing the header, so a value that cannot be encoded (a
// model output that overflowed to ±Inf or became NaN, which JSON has no
// spelling for) answers 500 with the error envelope instead of a 200 with
// an empty body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(errorBody{Error: "encoding response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}
