// Command inspire-serve is the network inference front end: a versioned,
// hot-swappable model registry over compiled plans, per-model dynamic
// batchers with admission control, and JSON inference over HTTP.
//
//	inspire-serve                          # lenet5 + squeezenet on :8080
//	inspire-serve -addr 127.0.0.1:0        # ephemeral port (printed on stdout)
//	inspire-serve -models lenet5 -force ipe -fuse
//	inspire-serve -max-batch 64 -slo 2ms -queue 4096
//	inspire-serve -autotune -tune-cache tuning.json
//	inspire-serve -share-dict=false        # disable shared-dictionary interning
//
// Every model compiles through obs.CompilePlan — the same code path
// inspire-perf measures — so a served plan and a benchmarked plan differ
// only in the explicit options (-force/-fuse/-autotune), never in model
// construction. With -share-dict (the default) all models and all hot-swap
// versions compile through one content-addressed dictionary store:
// identical index-pair programs across models and versions are interned
// once and their compiled emit tables reused, shrinking resident bytes per
// model (watch the "models" table of `inspire-stats -url ...`).
//
// Hot swap: POST /v1/models/{model}/versions with {"seed":N} compiles a new
// weight version while the old one keeps serving, atomically redirects
// traffic, drains the old batcher (zero dropped requests — CI enforces it),
// and releases the old executor pool. Responses carry the serving version,
// so clients can verify monotonicity across swaps.
//
// With -autotune (auto impl selection only) each version's plan is seeded
// from the -tune-cache file, an online bandit routes a small exploration
// fraction of live traffic through alternate kernel implementations,
// promotes sustained winners, and writes them back to the cache on drain.
//
// Endpoints:
//
//	GET  /healthz                     liveness
//	GET  /v1/models                   model listing (shapes, versions, limits)
//	POST /v1/models/{model}/predict   {"data":[...],"shape":[...]} inference
//	POST /v1/models/{model}/versions  {"seed":N} compile + hot-swap
//	GET  /v1/models/{model}/metrics   per-model metrics.Snapshot slice
//	GET  /v1/registry                 residency report (owned/shared bytes)
//	GET  /metrics                     live metrics.Snapshot JSON
//
// Responses: 200 on success, 400 on malformed input, 404 unknown model,
// 429 when the admission queue is full (back off and retry), 503 while
// draining during shutdown. SIGINT/SIGTERM drain admitted requests before
// exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/autotune"
	"repro/internal/ipe"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/runtime"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:0 picks an ephemeral port)")
	addrFile := flag.String("addrfile", "", "write the bound address to this file once listening (for scripts)")
	models := flag.String("models", "lenet5,squeezenet", "comma-separated models to serve")
	force := flag.String("force", "auto",
		"implementation to pin every conv/dense layer to: auto, dense, csr, factorized, ipe, winograd")
	bits := flag.Int("bits", 4, "weight quantization bit-width for encoded implementations")
	fuse := flag.Bool("fuse", false, "compile with the graph-level scheduler (fusion + tiling)")
	shareDict := flag.Bool("share-dict", true,
		"intern index-pair programs through one shared dictionary store across models and versions")
	maxBatch := flag.Int("max-batch", 32, "most compiled-batch chunks one flush carries")
	slo := flag.Duration("slo", 2*time.Millisecond, "max wait for companions behind a running flush; an idle batcher dispatches at once (0 = never wait)")
	queue := flag.Int("queue", 4096, "admission queue depth per model (full queue = 429)")
	workers := flag.Int("workers", 0, "RunBatch workers per flush (0 = GOMAXPROCS)")
	inflight := flag.Int("inflight", 2, "concurrent RunBatch flushes per model")
	poolSize := flag.Duration("pool-resize", 5*time.Second,
		"traffic-driven executor pool resizing period (0 = off)")
	tune := flag.Bool("autotune", false,
		"enable the online autotuner: explore alternate kernel implementations on live traffic and promote measured winners (requires -force auto)")
	tuneCache := flag.String("tune-cache", "",
		"tuning-cache file: seeds plans at startup, receives promoted winners on drain (with -autotune)")
	tuneInterval := flag.Duration("tune-interval", 5*time.Second, "autotuner promotion-poll period")
	tuneExplore := flag.Int("tune-explore", 0,
		"route every Nth execution of a tuned layer through an alternate implementation (0 = default 16)")
	flag.Parse()

	impl, ok := map[string]runtime.Impl{
		"auto": runtime.ImplAuto, "dense": runtime.ImplDense,
		"csr": runtime.ImplCSR, "factorized": runtime.ImplFactorized,
		"ipe": runtime.ImplIPE, "winograd": runtime.ImplWinograd,
	}[*force]
	if !ok {
		fmt.Fprintf(os.Stderr, "inspire-serve: unknown -force %q\n", *force)
		os.Exit(2)
	}

	// Metrics first: batchers and executors resolve the recorder when built.
	runtime.EnableMetrics()

	opts := runtime.Options{Force: impl, Bits: *bits, Fuse: *fuse}
	if *tune && impl != runtime.ImplAuto {
		fmt.Fprintf(os.Stderr, "inspire-serve: -autotune requires -force auto (got %s)\n", *force)
		os.Exit(2)
	}
	var store *autotune.Store
	if *tune || *tuneCache != "" {
		// A corrupt, truncated, or legacy-version cache must never stop the
		// server: it just plans from defaults and re-measures.
		store = autotune.LoadStoreOrEmpty(*tuneCache)
		if store.Len() > 0 {
			fmt.Printf("inspire-serve: tuning cache %s: %d entries\n", *tuneCache, store.Len())
		}
		opts.TuningStore = store
	}
	var dict *ipe.DictStore
	if *shareDict {
		dict = ipe.NewDictStore()
		opts.DictStore = dict
	}

	// Every version of every model — the startup loads below and all later
	// hot swaps — compiles through this one function, so serving and
	// benchmarking (inspire-perf) can never drift apart in model setup.
	var tunersMu sync.Mutex
	var tuners []*runtime.PlanTuner
	compile := func(model string, seed uint64) (*runtime.Plan, error) {
		plan, err := obs.CompilePlan(model, seed, opts)
		if err != nil {
			return nil, err
		}
		if *tune {
			pt, err := plan.StartTuner(runtime.TunerConfig{
				Policy:    autotune.Policy{ExplorePeriod: *tuneExplore},
				Interval:  *tuneInterval,
				Store:     store,
				StorePath: *tuneCache,
			})
			if err != nil {
				return nil, fmt.Errorf("autotuning %s: %w", model, err)
			}
			tunersMu.Lock()
			tuners = append(tuners, pt)
			tunersMu.Unlock()
		}
		return plan, nil
	}

	reg, err := registry.New(registry.Options{
		Compile: compile,
		Serve: serve.Config{
			MaxBatch:    *maxBatch,
			SLO:         *slo,
			QueueDepth:  *queue,
			Workers:     *workers,
			MaxInFlight: *inflight,
		},
		DictStore: dict,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "inspire-serve: %v\n", err)
		os.Exit(1)
	}

	served := 0
	for _, name := range strings.Split(*models, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		v, err := reg.Add(name, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "inspire-serve: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("inspire-serve: %s v%d compiled (force=%s fuse=%v autotune=%v share-dict=%v, input %v)\n",
			name, v.Version, *force, *fuse, *tune, *shareDict, v.Plan.Graph.In.OutShape)
		served++
	}
	if served == 0 {
		fmt.Fprintln(os.Stderr, "inspire-serve: no models")
		os.Exit(2)
	}
	if dict != nil {
		st := dict.Stats()
		fmt.Printf("inspire-serve: shared dict: %d unique programs, %d hits, %d bytes saved\n",
			st.UniquePrograms, st.ProgramHits+st.DictHits, st.SavedBytes)
	}
	if *poolSize > 0 {
		reg.StartPoolSizer(*poolSize)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "inspire-serve: %v\n", err)
		os.Exit(1)
	}
	bound := ln.Addr().String()
	fmt.Printf("inspire-serve: listening on %s\n", bound)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "inspire-serve: writing -addrfile: %v\n", err)
			os.Exit(1)
		}
	}

	srv := &http.Server{Handler: serve.NewHandler(reg)}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("inspire-serve: %v: draining\n", s)
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "inspire-serve: %v\n", err)
			os.Exit(1)
		}
		return
	}

	// Stop accepting connections, then drain the batchers so every admitted
	// request completes before exit.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "inspire-serve: shutdown: %v\n", err)
	}
	reg.Close()
	// Batchers are drained: freeze routing at the promoted winners and
	// persist them so the next start plans the tuned configuration.
	tunersMu.Lock()
	for _, pt := range tuners {
		if err := pt.Stop(); err != nil {
			fmt.Fprintf(os.Stderr, "inspire-serve: saving tuning cache: %v\n", err)
		}
	}
	n := len(tuners)
	tunersMu.Unlock()
	if n > 0 && *tuneCache != "" {
		fmt.Printf("inspire-serve: tuning cache saved to %s (%d entries)\n", *tuneCache, store.Len())
	}
	fmt.Println("inspire-serve: drained, bye")
}
