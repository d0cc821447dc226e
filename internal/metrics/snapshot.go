package metrics

import (
	"encoding/json"
	"expvar"
	"io"
)

// LayerSnapshot is the point-in-time view of one layer's series: which
// kernel families executed it (usually exactly one), its latency
// distribution, and the batch sizes it saw. It is the unit the perf JSON
// attaches per layer and the CI regression gate diffs.
type LayerSnapshot struct {
	Name string `json:"name"`
	// Kernel is the dominant (most-dispatched) kernel family.
	Kernel string `json:"kernel"`
	// Kernels maps kernel name -> dispatch count, for layers that ran under
	// more than one implementation.
	Kernels map[string]int64 `json:"kernels,omitempty"`
	// KernelMeanNs maps kernel name -> mean latency over that kernel's own
	// executions of this layer — the per-implementation series the online
	// autotuner judges candidates by.
	KernelMeanNs map[string]int64 `json:"kernel_mean_ns,omitempty"`
	Latency      HistSnapshot     `json:"latency"`
	// MeanBatch and MaxBatch summarize the batch sizes recorded.
	MeanBatch float64 `json:"mean_batch"`
	MaxBatch  int64   `json:"max_batch"`
}

// RegionSnapshot is the point-in-time view of one fused region: the
// scheduler's decision (mode, retained/spilled bytes, modeled DRAM traffic
// fused vs unfused) and the live run/tile counters.
type RegionSnapshot struct {
	Name             string `json:"name"`
	Mode             string `json:"mode"`
	Runs             int64  `json:"runs"`
	Tiles            int64  `json:"tiles"`
	RetainedBytes    int64  `json:"retained_bytes"`
	SpilledBytes     int64  `json:"spilled_bytes"`
	FusedDRAMBytes   int64  `json:"fused_dram_bytes"`
	UnfusedDRAMBytes int64  `json:"unfused_dram_bytes"`
}

// AutotuneSnapshot is the point-in-time view of one tuned layer's bandit:
// the implementation currently serving it, the executions the bandit
// routed, the exploration fraction spent on alternates, and how many
// promotions have landed.
type AutotuneSnapshot struct {
	Name         string `json:"name"`
	Current      string `json:"current"`
	Executions   int64  `json:"executions"`
	Explorations int64  `json:"explorations"`
	Promotions   int64  `json:"promotions"`
}

// EndpointSnapshot is the point-in-time view of one serving endpoint: the
// admission counters, batch-coalescing evidence (MeanBatch > 1 means the
// dynamic batcher merged concurrent requests), queue extents, the
// end-to-end latency and batcher wait distributions, and the mean QPS over
// the window from the first to the last completed request.
type EndpointSnapshot struct {
	Name             string       `json:"name"`
	Requests         int64        `json:"requests"`
	Errors           int64        `json:"errors,omitempty"`
	RejectedOverload int64        `json:"rejected_overload,omitempty"`
	RejectedClosed   int64        `json:"rejected_closed,omitempty"`
	Flushes          int64        `json:"flushes"`
	Items            int64        `json:"items"`
	MeanBatch        float64      `json:"mean_batch"`
	MaxBatch         int64        `json:"max_batch"`
	QueueMax         int64        `json:"queue_max"`
	QPS              float64      `json:"qps"`
	Latency          HistSnapshot `json:"latency"`
	Wait             HistSnapshot `json:"wait"`
}

// PoolSnapshot is the point-in-time view of the worker-pool telemetry.
type PoolSnapshot struct {
	Submitted       int64   `json:"submitted"`
	HelperRuns      int64   `json:"helper_runs"`
	InlineFallbacks int64   `json:"inline_fallbacks"`
	CallerRuns      int64   `json:"caller_runs"`
	SpawnWaitNs     int64   `json:"spawn_wait_ns"`
	MeanSpawnWaitNs int64   `json:"mean_spawn_wait_ns"`
	MeanOccupancy   float64 `json:"mean_occupancy"`
	MaxOccupancy    int64   `json:"max_occupancy"`
}

// ExecSnapshot is the point-in-time view of the executor/arena telemetry.
type ExecSnapshot struct {
	Acquires           int64        `json:"acquires"`
	PoolReuses         int64        `json:"pool_reuses"`
	Builds             int64        `json:"builds"`
	Releases           int64        `json:"releases"`
	Runs               int64        `json:"runs"`
	RunErrors          int64        `json:"run_errors"`
	Batches            int64        `json:"batches"`
	BatchItems         int64        `json:"batch_items"`
	ArenaBytesResident int64        `json:"arena_bytes_resident"`
	ArenaBytesPeak     int64        `json:"arena_bytes_peak"`
	ScratchHighWater   int64        `json:"scratch_high_water_floats"`
	RunLatency         HistSnapshot `json:"run_latency"`
}

// Snapshot is a self-consistent-enough point-in-time view of a Recorder,
// serializable to JSON (the expvar-style dump).
type Snapshot struct {
	Layers []LayerSnapshot `json:"layers"`
	// Regions lists the fused-region series (empty unless a plan compiled
	// with the graph scheduler registered executors).
	Regions []RegionSnapshot `json:"regions,omitempty"`
	// Endpoints lists the serving-endpoint series (empty unless a serve
	// batcher registered traffic).
	Endpoints []EndpointSnapshot `json:"endpoints,omitempty"`
	// Autotune lists the online-tuner series (empty unless a plan tuner is
	// running).
	Autotune []AutotuneSnapshot `json:"autotune,omitempty"`
	// Models lists the versioned-registry series (empty unless a registry
	// published model state).
	Models []ModelSnapshot `json:"models,omitempty"`
	// SharedDict reports the shared-dictionary store's dedup gauges (nil
	// unless an ipe.DictStore published).
	SharedDict *SharedDictSnapshot `json:"shared_dict,omitempty"`
	Kernels    map[string]int64    `json:"kernel_dispatches"`
	Pool       PoolSnapshot        `json:"pool"`
	Exec       ExecSnapshot        `json:"executor"`
}

// Snapshot captures every series of the recorder. Layers appear in
// registration order (the executor registers them in topological order, so
// the dump reads like the forward pass). Nil-safe: a nil recorder yields a
// zero snapshot.
func (r *Recorder) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	layers := append([]*LayerStats(nil), r.ordered...)
	regions := append([]*RegionStats(nil), r.regOrdered...)
	endpoints := append([]*EndpointStats(nil), r.epOrdered...)
	autotune := append([]*AutotuneStats(nil), r.atOrdered...)
	models := append([]*ModelStats(nil), r.mdOrdered...)
	r.mu.Unlock()
	s.Layers = make([]LayerSnapshot, 0, len(layers))
	for _, l := range layers {
		s.Layers = append(s.Layers, l.Snapshot())
	}
	for _, reg := range regions {
		s.Regions = append(s.Regions, reg.Snapshot())
	}
	for _, ep := range endpoints {
		s.Endpoints = append(s.Endpoints, ep.Snapshot())
	}
	for _, at := range autotune {
		s.Autotune = append(s.Autotune, at.Snapshot())
	}
	for _, md := range models {
		s.Models = append(s.Models, md.Snapshot())
	}
	if d := r.sharedDict.Load(); d != nil {
		s.SharedDict = &SharedDictSnapshot{
			Lookups:        d.Lookups,
			ProgramHits:    d.ProgramHits,
			DictHits:       d.DictHits,
			UniquePrograms: d.UniquePrograms,
			UniqueBytes:    d.UniqueBytes,
			SavedBytes:     d.SavedBytes,
		}
	}
	s.Kernels = make(map[string]int64)
	for k := Kernel(0); k < KernelCount; k++ {
		if n := r.kernels[k].Load(); n > 0 {
			s.Kernels[k.String()] = n
		}
	}
	s.Pool = r.Pool.Snapshot()
	s.Exec = r.Exec.Snapshot()
	return s
}

// Capture snapshots the process-wide recorder (zero snapshot if disabled).
func Capture() Snapshot { return Get().Snapshot() }

// Snapshot captures one layer series.
func (l *LayerStats) Snapshot() LayerSnapshot {
	var s LayerSnapshot
	if l == nil {
		return s
	}
	s.Name = l.name
	var domK Kernel
	var domN int64
	for k := Kernel(0); k < KernelCount; k++ {
		n := l.kernels[k].Load()
		if n == 0 {
			continue
		}
		if s.Kernels == nil {
			s.Kernels = make(map[string]int64)
		}
		s.Kernels[k.String()] = n
		if sum := l.kernelNs[k].Load(); sum > 0 {
			if s.KernelMeanNs == nil {
				s.KernelMeanNs = make(map[string]int64)
			}
			s.KernelMeanNs[k.String()] = sum / n
		}
		if n > domN {
			domK, domN = k, n
		}
	}
	s.Kernel = domK.String()
	s.Latency = l.lat.Snapshot()
	s.MaxBatch = l.batchMax.Load()
	if s.Latency.Count > 0 {
		s.MeanBatch = float64(l.batchSum.Load()) / float64(s.Latency.Count)
	}
	return s
}

// Snapshot captures one autotune series.
func (s *AutotuneStats) Snapshot() AutotuneSnapshot {
	var snap AutotuneSnapshot
	if s == nil {
		return snap
	}
	snap.Name = s.name
	if c := s.current.Load(); c != nil {
		snap.Current = *c
	}
	snap.Executions = s.Executions.Load()
	snap.Explorations = s.Explorations.Load()
	snap.Promotions = s.Promotions.Load()
	return snap
}

// Snapshot captures one region series.
func (s *RegionStats) Snapshot() RegionSnapshot {
	var snap RegionSnapshot
	if s == nil {
		return snap
	}
	snap.Name = s.name
	if m := s.mode.Load(); m != nil {
		snap.Mode = *m
	}
	snap.Runs = s.Runs.Load()
	snap.Tiles = s.Tiles.Load()
	snap.RetainedBytes = s.retainedBytes.Load()
	snap.SpilledBytes = s.spilledBytes.Load()
	snap.FusedDRAMBytes = s.fusedDRAMBytes.Load()
	snap.UnfusedDRAMBytes = s.unfusedDRAMBytes.Load()
	return snap
}

// Snapshot captures one endpoint series.
func (s *EndpointStats) Snapshot() EndpointSnapshot {
	var snap EndpointSnapshot
	if s == nil {
		return snap
	}
	snap.Name = s.name
	snap.Requests = s.Requests.Load()
	snap.Errors = s.Errors.Load()
	snap.RejectedOverload = s.RejectedOverload.Load()
	snap.RejectedClosed = s.RejectedClosed.Load()
	snap.Flushes = s.Flushes.Load()
	snap.Items = s.Items.Load()
	if snap.Flushes > 0 {
		snap.MeanBatch = float64(snap.Items) / float64(snap.Flushes)
	}
	snap.MaxBatch = s.batchMax.Load()
	snap.QueueMax = s.queueMax.Load()
	snap.Latency = s.Lat.Snapshot()
	snap.Wait = s.Wait.Snapshot()
	if first, last := s.firstNs.Load(), s.lastNs.Load(); snap.Requests > 1 && last > first {
		snap.QPS = float64(snap.Requests-1) / (float64(last-first) / 1e9)
	}
	return snap
}

// Snapshot captures the pool telemetry.
func (p *PoolStats) Snapshot() PoolSnapshot {
	var s PoolSnapshot
	if p == nil {
		return s
	}
	s.HelperRuns = p.HelperRuns.Load()
	s.InlineFallbacks = p.InlineFallbacks.Load()
	s.CallerRuns = p.CallerRuns.Load()
	s.Submitted = s.HelperRuns + s.InlineFallbacks + s.CallerRuns
	s.SpawnWaitNs = p.SpawnWaitNs.Load()
	if s.HelperRuns > 0 {
		s.MeanSpawnWaitNs = s.SpawnWaitNs / s.HelperRuns
	}
	s.MaxOccupancy = p.OccupancyMax.Load()
	if n := p.OccupancyCount.Load(); n > 0 {
		s.MeanOccupancy = float64(p.OccupancySum.Load()) / float64(n)
	}
	return s
}

// Snapshot captures the executor telemetry.
func (e *ExecStats) Snapshot() ExecSnapshot {
	var s ExecSnapshot
	if e == nil {
		return s
	}
	s.Acquires = e.Acquires.Load()
	s.PoolReuses = e.PoolReuses.Load()
	s.Builds = e.Builds.Load()
	s.Releases = e.Releases.Load()
	s.Runs = e.Runs.Load()
	s.RunErrors = e.RunErrors.Load()
	s.Batches = e.Batches.Load()
	s.BatchItems = e.BatchItems.Load()
	s.ArenaBytesResident = e.ArenaBytesResident.Load()
	s.ArenaBytesPeak = e.ArenaBytesPeak.Load()
	s.ScratchHighWater = e.ScratchHighWater.Load()
	s.RunLatency = e.RunNs.Snapshot()
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Publish registers the process-wide recorder under the given expvar name
// (e.g. "inspire"), so any HTTP server that mounts expvar's /debug/vars
// handler exposes the live snapshot. Publishing twice with the same name
// panics (expvar semantics), so call once at startup.
func Publish(name string) {
	expvar.Publish(name, expvar.Func(func() any { return Capture() }))
}
