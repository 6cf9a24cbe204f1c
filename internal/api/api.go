// Package api defines the wire format of the msrd simulation daemon:
// the JSON shapes exchanged by internal/server and internal/client over
// the /v1 HTTP API.
//
// The wire Spec is deliberately a strict subset of sim.Spec — only
// registry workloads (named, built deterministically at a scale) can
// cross the wire, never pre-built programs, tracers or Tune closures.
// That restriction is what makes the daemon's content-addressed result
// cache sound: a wire spec's sim.Spec.CanonicalKey() fully describes
// the simulation it requests, so equal keys mean equal results.
package api

import (
	"errors"
	"fmt"
	"time"

	"mssr/internal/obs"
	"mssr/internal/sim"
	"mssr/internal/stats"
)

// Spec is the wire form of one simulation request.
type Spec struct {
	// Label is the caller's display key for the result (sim.Spec.Label).
	// It never influences caching.
	Label string `json:"label,omitempty"`
	// Workload names a registry workload; required.
	Workload string `json:"workload"`
	// Scale is the workload scale factor (1 = the paper's standard scale).
	Scale int `json:"scale,omitempty"`
	// Engine is the reuse engine name ("" or "none", "rgid", "ri",
	// "dir-value", "dir-name").
	Engine string `json:"engine,omitempty"`
	// Geometry (0 = the engine's default).
	Streams int `json:"streams,omitempty"`
	Entries int `json:"entries,omitempty"`
	Sets    int `json:"sets,omitempty"`
	Ways    int `json:"ways,omitempty"`
	// Loads is the reused-load protection policy ("" or "default",
	// "verify", "bloom", "none").
	Loads string `json:"loads,omitempty"`
	// Check runs the lockstep functional checker at commit.
	Check bool `json:"check,omitempty"`
	// VerifyArch compares the final architectural state with the
	// functional emulator.
	VerifyArch bool `json:"verify_arch,omitempty"`
	// SampleInterval attaches interval telemetry at this cycle period
	// (0 = disabled); SampleWindow bounds the retained interval ring.
	SampleInterval uint64 `json:"sample_interval,omitempty"`
	SampleWindow   int    `json:"sample_window,omitempty"`
	// Multi-fidelity execution (sim.Spec.FastForward and friends): skip
	// FastForward instructions functionally before each detailed window of
	// DetailedWindow instructions, SamplePeriods times, optionally warming
	// caches and branch predictor during the skip (Warm applies to uniform
	// sampling; a spec setting it with phase_select "kmeans" is invalid).
	// All four are part of the canonical cache key.
	FastForward    uint64 `json:"fast_forward,omitempty"`
	DetailedWindow uint64 `json:"detailed_window,omitempty"`
	SamplePeriods  int    `json:"sample_periods,omitempty"`
	Warm           bool   `json:"warm,omitempty"`
	// PhaseSelect picks the sampling placement policy ("" or "uniform",
	// "kmeans"); MaxErr > 0 enables adaptive stopping at that relative
	// standard error; NoCheckpoint opts a run out of the daemon's
	// checkpoint store. All three are part of the canonical cache key.
	PhaseSelect  string  `json:"phase_select,omitempty"`
	MaxErr       float64 `json:"max_err,omitempty"`
	NoCheckpoint bool    `json:"no_checkpoint,omitempty"`
	// TimeoutMS bounds the simulation's wall time (0 = server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Sim converts the wire spec into a sim.Spec, resolving the engine and
// load-policy names. It does not validate the result; the server
// validates after conversion so the error carries the canonical key.
func (s Spec) Sim() (sim.Spec, error) {
	eng, err := sim.ParseEngine(s.Engine)
	if err != nil {
		return sim.Spec{}, err
	}
	loads, err := sim.ParseLoadPolicy(s.Loads)
	if err != nil {
		return sim.Spec{}, err
	}
	phase, err := sim.ParsePhaseMode(s.PhaseSelect)
	if err != nil {
		return sim.Spec{}, err
	}
	return sim.Spec{
		Label:          s.Label,
		Workload:       s.Workload,
		Scale:          s.Scale,
		Engine:         eng,
		Streams:        s.Streams,
		Entries:        s.Entries,
		Sets:           s.Sets,
		Ways:           s.Ways,
		Loads:          loads,
		Check:          s.Check,
		VerifyArch:     s.VerifyArch,
		SampleInterval: s.SampleInterval,
		SampleWindow:   s.SampleWindow,
		FastForward:    s.FastForward,
		DetailedWindow: s.DetailedWindow,
		SamplePeriods:  s.SamplePeriods,
		Warm:           s.Warm,
		PhaseSelect:    phase,
		MaxErr:         s.MaxErr,
		NoCheckpoint:   s.NoCheckpoint,
		Timeout:        time.Duration(s.TimeoutMS) * time.Millisecond,
	}, nil
}

// FromSim converts a sim.Spec into its wire form. Specs carrying state
// that cannot cross the wire — a pre-built program, a Tune closure, a
// tracer — are rejected; remote consumers must describe runs by
// workload name.
func FromSim(s sim.Spec) (Spec, error) {
	var reasons []error
	if s.Program != nil {
		reasons = append(reasons, errors.New("pre-built Program is not serializable (use a registry Workload)"))
	}
	if s.Tune != nil {
		reasons = append(reasons, errors.New("Tune closure is not serializable"))
	}
	if s.Tracer != nil {
		reasons = append(reasons, errors.New("Tracer is not serializable"))
	}
	if len(reasons) > 0 {
		return Spec{}, fmt.Errorf("api: spec %s not remotable: %w", s.Key(), errors.Join(reasons...))
	}
	ws := Spec{
		Label:          s.Label,
		Workload:       s.Workload,
		Scale:          s.Scale,
		Streams:        s.Streams,
		Entries:        s.Entries,
		Sets:           s.Sets,
		Ways:           s.Ways,
		Check:          s.Check,
		VerifyArch:     s.VerifyArch,
		SampleInterval: s.SampleInterval,
		SampleWindow:   s.SampleWindow,
		FastForward:    s.FastForward,
		DetailedWindow: s.DetailedWindow,
		SamplePeriods:  s.SamplePeriods,
		Warm:           s.Warm,
		MaxErr:         s.MaxErr,
		NoCheckpoint:   s.NoCheckpoint,
		TimeoutMS:      s.Timeout.Milliseconds(),
	}
	if s.Engine != sim.EngineNone {
		ws.Engine = s.Engine.String()
	}
	if s.PhaseSelect != sim.PhaseUniform {
		ws.PhaseSelect = s.PhaseSelect.String()
	}
	if s.Loads != sim.LoadDefault {
		ws.Loads = s.Loads.String()
	}
	return ws, nil
}

// Result sources.
const (
	// SourceRun: the daemon ran the simulation for this request.
	SourceRun = "run"
	// SourceCache: served from the content-addressed result cache.
	SourceCache = "cache"
	// SourceDedup: joined an identical in-flight simulation.
	SourceDedup = "dedup"
	// SourceStore: served from the persistent content-addressed store
	// (typically a result computed before the daemon's last restart).
	SourceStore = "store"
)

// Result is the wire form of one completed simulation.
type Result struct {
	// Index is the spec's position in the submitted batch.
	Index int `json:"index"`
	// Key is the spec's display key (Label or canonical key).
	Key string `json:"key"`
	// CacheKey is the canonical content key the result is cached under.
	CacheKey string `json:"cache_key"`
	// Source records how the daemon produced the result: SourceRun,
	// SourceCache or SourceDedup.
	Source  string  `json:"source"`
	Program string  `json:"program,omitempty"`
	Engine  string  `json:"engine,omitempty"`
	Cycles  uint64  `json:"cycles,omitempty"`
	Retired uint64  `json:"retired,omitempty"`
	IPC     float64 `json:"ipc,omitempty"`
	// MIPS is the simulated throughput on the daemon (retired
	// instructions per host wall second, in millions); carried for
	// cache hits too, reflecting the original run.
	MIPS float64 `json:"mips,omitempty"`
	// WallNS is the simulation's wall time on the daemon (0 for cache
	// hits, which cost no simulation time).
	WallNS int64        `json:"wall_ns"`
	Error  string       `json:"error,omitempty"`
	Stats  *stats.Stats `json:"stats,omitempty"`
	// Intervals is the run's interval-telemetry stream, present when the
	// spec set SampleInterval. Cached results carry the original run's
	// stream (sampling parameters are part of the cache key).
	Intervals []obs.Interval `json:"intervals,omitempty"`
	// IntervalsDropped counts intervals lost to the sampler's bounded
	// ring (0 = complete stream).
	IntervalsDropped int `json:"intervals_dropped,omitempty"`
	// Multi-fidelity outcome (sim.Result fields of the same names); all
	// omitted for full-detail runs so their wire form is unchanged.
	Extrapolated    bool    `json:"extrapolated,omitempty"`
	Windows         int     `json:"windows,omitempty"`
	FastForwarded   uint64  `json:"fast_forwarded,omitempty"`
	TotalRetired    uint64  `json:"total_retired,omitempty"`
	ExtrapolatedIPC float64 `json:"extrapolated_ipc,omitempty"`
	IPCErrorEst     float64 `json:"ipc_error_est,omitempty"`
	// Checkpoint accounting for the run (sim.Result fields of the same
	// names): boundary states restored from / missing in the daemon's
	// checkpoint store, and the functional fast-forward instructions the
	// run actually executed (0 on a fully checkpoint-warm run).
	CkptHits   int    `json:"ckpt_hits,omitempty"`
	CkptMisses int    `json:"ckpt_misses,omitempty"`
	FFExecuted uint64 `json:"ff_executed,omitempty"`
}

// ResultFromSim converts a completed sim.Result into its wire form.
func ResultFromSim(r sim.Result, source string) Result {
	out := Result{
		Index:            r.Index,
		Key:              r.Key,
		CacheKey:         r.Spec.CanonicalKey(),
		Source:           source,
		Program:          r.Program,
		Engine:           r.EngineName,
		MIPS:             r.MIPS,
		WallNS:           r.Wall.Nanoseconds(),
		Stats:            r.Stats,
		Intervals:        r.Intervals,
		IntervalsDropped: r.IntervalsDropped,
		Extrapolated:     r.Extrapolated,
		Windows:          r.Windows,
		FastForwarded:    r.FastForwarded,
		TotalRetired:     r.TotalRetired,
		ExtrapolatedIPC:  r.ExtrapolatedIPC,
		IPCErrorEst:      r.IPCErrorEst,
		CkptHits:         r.CkptHits,
		CkptMisses:       r.CkptMisses,
		FFExecuted:       r.FFExecuted,
	}
	if r.Stats != nil {
		out.Cycles = r.Stats.Cycles
		out.Retired = r.Stats.Retired
		out.IPC = r.Stats.IPC()
	}
	if r.Err != nil {
		out.Error = r.Err.Error()
	}
	return out
}

// Sim converts the wire result back into a sim.Result for consumers
// (the experiment drivers) that run against either backend.
func (r Result) Sim() sim.Result {
	out := sim.Result{
		Index:            r.Index,
		Key:              r.Key,
		Program:          r.Program,
		EngineName:       r.Engine,
		Stats:            r.Stats,
		Wall:             time.Duration(r.WallNS),
		MIPS:             r.MIPS,
		Intervals:        r.Intervals,
		IntervalsDropped: r.IntervalsDropped,
		Extrapolated:     r.Extrapolated,
		Windows:          r.Windows,
		FastForwarded:    r.FastForwarded,
		TotalRetired:     r.TotalRetired,
		ExtrapolatedIPC:  r.ExtrapolatedIPC,
		IPCErrorEst:      r.IPCErrorEst,
		CkptHits:         r.CkptHits,
		CkptMisses:       r.CkptMisses,
		FFExecuted:       r.FFExecuted,
	}
	if r.Error != "" {
		out.Err = errors.New(r.Error)
	}
	return out
}

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
)

// SubmitRequest is the body of POST /v1/jobs.
type SubmitRequest struct {
	Specs []Spec `json:"specs"`
}

// SubmitResponse is the success body of POST /v1/jobs.
type SubmitResponse struct {
	JobID string `json:"job_id"`
	// Total is the number of simulations the job describes.
	Total int `json:"total"`
}

// JobStatus is the body of GET /v1/jobs/{id}.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Total int    `json:"total"`
	// Done counts completed simulations (any source).
	Done int `json:"done"`
	// CacheHits and DedupJoins count how many of the job's specs were
	// served without running a new simulation.
	CacheHits  int       `json:"cache_hits"`
	DedupJoins int       `json:"dedup_joins"`
	Submitted  time.Time `json:"submitted"`
	// Started and Finished are zero until the state transition happens.
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
	// Results holds one entry per spec in submit order; present only
	// when State is StateDone (use the stream endpoint for live
	// completions).
	Results []Result `json:"results,omitempty"`
	// Error is the job-level failure (shutdown, timeout), distinct from
	// per-result errors.
	Error string `json:"error,omitempty"`
}

// RegisterWorkerRequest is the body of POST /fleet/v1/workers on the
// coordinator: a worker daemon announcing the address the coordinator
// should dial it back on.
type RegisterWorkerRequest struct {
	Addr string `json:"addr"`
}

// WorkerInfo describes one fleet worker as the coordinator sees it.
type WorkerInfo struct {
	Addr string `json:"addr"`
	// Healthy reflects the coordinator's liveness probing; unhealthy
	// workers hold no queue and receive no new work.
	Healthy bool `json:"healthy"`
	// Queue is the coordinator-side count of specs sharded to this
	// worker and not yet dispatched.
	Queue int `json:"queue"`
	// Inflight is the count of specs dispatched and not yet resolved.
	Inflight int `json:"inflight"`
	// Dispatched and Completed count specs over the worker's lifetime.
	Dispatched uint64 `json:"dispatched"`
	Completed  uint64 `json:"completed"`
}

// WorkersResponse is the body of GET /fleet/v1/workers.
type WorkersResponse struct {
	Workers []WorkerInfo `json:"workers"`
}

// Error is the body of every non-2xx response.
type Error struct {
	Error string `json:"error"`
	// RetryAfterMS accompanies 429 responses: how long the client should
	// back off before resubmitting (the Retry-After header rounds this
	// up to whole seconds).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}
