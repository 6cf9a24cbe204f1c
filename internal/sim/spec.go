// Package sim is the orchestration layer every entrypoint runs
// simulations through: cmd/msrsim, cmd/msrbench, internal/experiments and
// the top-level benchmarks all construct typed run specifications (Spec)
// and execute them on a bounded, cancellable worker pool (Runner).
//
// The package owns the plumbing the entrypoints used to duplicate —
// workload lookup, engine/config construction, parallel scheduling — and
// adds what ad-hoc goroutine pools lacked: deterministic result ordering,
// per-job panic recovery and timeouts, aggregation of every job error
// (not just the first), and observer hooks for progress reporting and
// machine-readable result streams.
package sim

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"mssr/internal/core"
	"mssr/internal/isa"
	"mssr/internal/reuse"
	"mssr/internal/trace"
	"mssr/internal/workloads"
)

// Engine selects the squash-reuse engine of a run. The zero value is the
// no-reuse baseline.
type Engine int

// Engines.
const (
	// EngineNone is the no-reuse baseline core.
	EngineNone Engine = iota
	// EngineRGID is the paper's multi-stream mechanism (Streams/Entries).
	EngineRGID
	// EngineRI is the Register Integration baseline (Sets/Ways).
	EngineRI
	// EngineDIRValue is Dynamic Instruction Reuse, value scheme (Sets/Ways).
	EngineDIRValue
	// EngineDIRName is Dynamic Instruction Reuse, name scheme (Sets/Ways).
	EngineDIRName
)

func (e Engine) String() string {
	switch e {
	case EngineNone:
		return "none"
	case EngineRGID:
		return "rgid"
	case EngineRI:
		return "ri"
	case EngineDIRValue:
		return "dir-value"
	case EngineDIRName:
		return "dir-name"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// ParseEngine maps the command-line engine names onto Engine values.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "none", "":
		return EngineNone, nil
	case "rgid":
		return EngineRGID, nil
	case "ri":
		return EngineRI, nil
	case "dir", "dir-value":
		return EngineDIRValue, nil
	case "dir-name":
		return EngineDIRName, nil
	}
	return 0, fmt.Errorf("sim: unknown engine %q (none, rgid, ri, dir-value, dir-name)", s)
}

// LoadPolicy selects the reused-load protection of a run. The zero value
// keeps the engine's default (verification).
type LoadPolicy int

// Load policies.
const (
	// LoadDefault keeps the engine's default policy.
	LoadDefault LoadPolicy = iota
	// LoadVerify re-executes reused loads and compares values.
	LoadVerify
	// LoadBloom blocks reuse of loads hitting the store Bloom filter.
	LoadBloom
	// LoadNoReuse never reuses loads.
	LoadNoReuse
)

func (p LoadPolicy) String() string {
	switch p {
	case LoadDefault:
		return "default"
	case LoadVerify:
		return "verify"
	case LoadBloom:
		return "bloom"
	case LoadNoReuse:
		return "none"
	}
	return fmt.Sprintf("loads(%d)", int(p))
}

// ParseLoadPolicy maps the command-line policy names onto LoadPolicy
// values.
func ParseLoadPolicy(s string) (LoadPolicy, error) {
	switch s {
	case "", "default":
		return LoadDefault, nil
	case "verify":
		return LoadVerify, nil
	case "bloom":
		return LoadBloom, nil
	case "none":
		return LoadNoReuse, nil
	}
	return 0, fmt.Errorf("sim: unknown load policy %q (verify, bloom, none)", s)
}

func (p LoadPolicy) reuse() (reuse.LoadPolicy, bool) {
	switch p {
	case LoadVerify:
		return reuse.LoadVerify, true
	case LoadBloom:
		return reuse.LoadBloom, true
	case LoadNoReuse:
		return reuse.LoadNoReuse, true
	}
	return 0, false
}

// PhaseMode selects how a multi-fidelity run places its sample windows.
// The zero value is the uniform tiling every release before phase
// selection used.
type PhaseMode int

// Phase-selection modes.
const (
	// PhaseUniform tiles SamplePeriods windows uniformly across the
	// program (one {fast-forward, window} pair per period).
	PhaseUniform PhaseMode = iota
	// PhaseKMeans clusters the uniform tiles' signature vectors (IPC,
	// reuse rate, MPKI, branch MPKI, from a one-time checkpointed
	// profiling pass) with small-k k-means and simulates one
	// representative window per cluster, weighted by cluster population —
	// SimPoint-style region selection.
	PhaseKMeans
)

func (m PhaseMode) String() string {
	switch m {
	case PhaseUniform:
		return "uniform"
	case PhaseKMeans:
		return "kmeans"
	}
	return fmt.Sprintf("phase(%d)", int(m))
}

// ParsePhaseMode maps the command-line mode names onto PhaseMode values.
func ParsePhaseMode(s string) (PhaseMode, error) {
	switch s {
	case "", "uniform":
		return PhaseUniform, nil
	case "kmeans":
		return PhaseKMeans, nil
	}
	return 0, fmt.Errorf("sim: unknown phase mode %q (uniform, kmeans)", s)
}

// Spec is one fully-described simulation: which program to run and how to
// configure the core. A Spec is a value — copying it is cheap and safe —
// and Key() derives a canonical string identity used for result keying
// and error reporting.
type Spec struct {
	// Label, when non-empty, overrides the canonical key. The experiment
	// drivers use it to keep their "workload/config" result keys.
	Label string

	// Workload names a registry workload (built at Scale); Program is a
	// pre-built program. Exactly one must be set. Sharing one *isa.Program
	// across specs of a sweep is safe: the core never mutates it.
	Workload string
	Program  *isa.Program
	// Scale is the workload scale factor passed to the registry builder
	// (1 = the paper's standard scale; <1 selects the tiny validation
	// size). Ignored when Program is set.
	Scale int

	// Engine and its geometry. Zero geometry fields take the paper's
	// defaults (4x64 streams/entries, 64x4 sets/ways).
	Engine  Engine
	Streams int // EngineRGID: squashed streams tracked (N)
	Entries int // EngineRGID: squash-log entries per stream (P)
	Sets    int // EngineRI / EngineDIR*: table sets
	Ways    int // EngineRI / EngineDIR*: table ways

	// Loads selects the reused-load protection policy.
	Loads LoadPolicy
	// Check runs the lockstep functional checker at commit.
	Check bool
	// VerifyArch compares the final architectural state against the
	// functional emulator after the run; a mismatch is a job error.
	VerifyArch bool

	// SampleInterval, when positive, attaches the interval-telemetry
	// sampler (internal/obs): the core snapshots its counters every
	// SampleInterval cycles and the Result carries the derived per-interval
	// rates. Zero disables sampling.
	SampleInterval uint64
	// SampleWindow bounds the retained interval ring (0 = obs.DefaultWindow).
	SampleWindow int

	// Multi-fidelity execution (gem5-style mode switching). FastForward,
	// when positive, architecturally executes that many instructions on the
	// functional emulator before each detailed window instead of simulating
	// them cycle by cycle. DetailedWindow bounds each detailed window to
	// that many retired instructions; zero means the single window runs to
	// completion (an exact skip-then-measure run, still bit-for-bit
	// equivalent to full detail at the end state). SamplePeriods repeats
	// the {fast-forward, window} pair SimPoint-style (0 or 1 = one period);
	// with windows the run's Result is Extrapolated from the sampled
	// windows and carries an IPC-error estimate. Warm replays fast-forward
	// instructions into the cache hierarchy and branch predictor so each
	// window starts warm; it applies to uniform sampling only, since
	// phase-selected runs jump to checkpoints and never warm a skip
	// (Validate rejects Warm with PhaseKMeans). All four are part of
	// CanonicalKey: cached, stored and fleet-sharded results stay
	// content-sound.
	FastForward    uint64
	DetailedWindow uint64
	SamplePeriods  int
	Warm           bool

	// PhaseSelect places the sample windows: uniformly (the default), or
	// on k-means-selected representative phases weighted by cluster
	// population (PhaseKMeans, requiring SamplePeriods > 1). Part of
	// CanonicalKey: phase-selected results extrapolate differently.
	PhaseSelect PhaseMode
	// MaxErr, when positive, enables adaptive stopping: the run grows
	// sample windows in confidence order only until its own IPCErrorEst
	// (the relative standard error of the window IPC samples) drops to
	// MaxErr or below, instead of always running all SamplePeriods.
	// Requires SamplePeriods > 1. Part of CanonicalKey: the stopping
	// target changes which windows a result measured.
	MaxErr float64
	// NoCheckpoint opts the run out of the Runner's checkpoint store:
	// no boundary state is restored or captured and the functional
	// prefix is always re-emulated. Requires FastForward > 0. Part of
	// CanonicalKey so checkpoint accounting stays truthful per key.
	NoCheckpoint bool

	// Timeout bounds the job's wall time (0 = the Runner's default).
	Timeout time.Duration
	// Tracer, when set, receives pipeline events.
	Tracer trace.Tracer

	// Tune is an escape hatch applied to the built core.Config last, for
	// ablation knobs the typed fields do not cover. TuneKey names the
	// tuning in the canonical key and is required when Tune is set, so
	// tuned specs remain distinguishable.
	Tune    func(*core.Config)
	TuneKey string
}

// Validate reports whether the spec describes a runnable simulation.
func (s *Spec) Validate() error {
	var errs []error
	if s.Workload == "" && s.Program == nil {
		errs = append(errs, errors.New("no workload or program"))
	}
	if s.Workload != "" && s.Program != nil {
		errs = append(errs, errors.New("both workload and program set"))
	}
	if s.Workload != "" {
		if _, err := workloads.ByName(s.Workload); err != nil {
			errs = append(errs, err)
		}
	}
	if s.Scale < 0 {
		errs = append(errs, fmt.Errorf("negative scale %d", s.Scale))
	}
	switch s.Engine {
	case EngineNone, EngineRGID, EngineRI, EngineDIRValue, EngineDIRName:
	default:
		errs = append(errs, fmt.Errorf("unknown engine %d", int(s.Engine)))
	}
	for _, g := range []struct {
		name string
		v    int
	}{{"streams", s.Streams}, {"entries", s.Entries}, {"sets", s.Sets}, {"ways", s.Ways}} {
		if g.v < 0 {
			errs = append(errs, fmt.Errorf("negative %s %d", g.name, g.v))
		}
	}
	if _, ok := s.Loads.reuse(); !ok && s.Loads != LoadDefault {
		errs = append(errs, fmt.Errorf("unknown load policy %d", int(s.Loads)))
	}
	if s.SampleWindow < 0 {
		errs = append(errs, fmt.Errorf("negative sample window %d", s.SampleWindow))
	}
	if s.SampleWindow > 0 && s.SampleInterval == 0 {
		errs = append(errs, errors.New("SampleWindow set without SampleInterval"))
	}
	if s.DetailedWindow > 0 && s.FastForward == 0 {
		errs = append(errs, errors.New("DetailedWindow set without FastForward"))
	}
	if s.SamplePeriods < 0 {
		errs = append(errs, fmt.Errorf("negative sample periods %d", s.SamplePeriods))
	}
	if s.SamplePeriods > 1 && s.DetailedWindow == 0 {
		errs = append(errs, errors.New("SamplePeriods set without DetailedWindow"))
	}
	if s.Warm && s.FastForward == 0 {
		errs = append(errs, errors.New("Warm set without FastForward"))
	}
	switch s.PhaseSelect {
	case PhaseUniform:
	case PhaseKMeans:
		if s.SamplePeriods <= 1 {
			errs = append(errs, errors.New("PhaseKMeans needs SamplePeriods > 1"))
		}
		if s.Warm {
			// Phased windows start from checkpoint jumps, not skips, so a
			// "warmed" result would duplicate the unwarmed one under
			// another key.
			errs = append(errs, errors.New("Warm set with PhaseKMeans, whose windows never warm a skip"))
		}
	default:
		errs = append(errs, fmt.Errorf("unknown phase mode %d", int(s.PhaseSelect)))
	}
	if s.MaxErr < 0 {
		errs = append(errs, fmt.Errorf("negative max error %g", s.MaxErr))
	}
	if s.MaxErr > 0 && s.SamplePeriods <= 1 {
		errs = append(errs, errors.New("MaxErr needs SamplePeriods > 1"))
	}
	if s.NoCheckpoint && s.FastForward == 0 {
		errs = append(errs, errors.New("NoCheckpoint set without FastForward"))
	}
	if s.Timeout < 0 {
		errs = append(errs, fmt.Errorf("negative timeout %s", s.Timeout))
	}
	if s.Tune != nil && s.TuneKey == "" {
		errs = append(errs, errors.New("Tune set without TuneKey"))
	}
	if len(errs) > 0 {
		return fmt.Errorf("sim: invalid spec %s: %w", s.Key(), errors.Join(errs...))
	}
	return nil
}

// Key returns the spec's identity: the Label when set, otherwise the
// canonical key.
func (s *Spec) Key() string {
	if s.Label != "" {
		return s.Label
	}
	return s.CanonicalKey()
}

// CanonicalKey returns the spec's content identity — a canonical
// "program@scale/engine-geometry[+modifiers]" string that ignores the
// display Label, so two specs describing the same simulation share one
// key regardless of how their sweeps chose to label them. The serving
// layer's result cache and in-flight dedup are keyed on it; for
// workload-based specs it is a complete description of the run (the
// registry builders are deterministic), which is what makes cached
// results safe to share across jobs.
func (s *Spec) CanonicalKey() string {
	var sb strings.Builder
	s.writeProgramKey(&sb)
	sb.WriteByte('/')
	s.writeEngineKey(&sb)
	if s.Check {
		sb.WriteString("+check")
	}
	if s.VerifyArch {
		sb.WriteString("+verify")
	}
	// Sampling is part of the content identity: sampled results carry the
	// interval stream, so a cached unsampled result must not satisfy a
	// sampled request (and vice versa).
	if s.SampleInterval > 0 {
		fmt.Fprintf(&sb, "+iv%d", s.SampleInterval)
		if s.SampleWindow > 0 {
			fmt.Fprintf(&sb, "w%d", s.SampleWindow)
		}
	}
	// Fidelity parameters change what the result means (sampled windows vs
	// full detail), so they are content identity too: a cached full-detail
	// result must never satisfy a fast-forwarded request, and distinct
	// window geometries shard to their own fleet homes.
	if s.FastForward > 0 {
		fmt.Fprintf(&sb, "+ff%d", s.FastForward)
		if s.DetailedWindow > 0 {
			fmt.Fprintf(&sb, "+dw%d", s.DetailedWindow)
		}
		if s.SamplePeriods > 1 {
			fmt.Fprintf(&sb, "+sp%d", s.SamplePeriods)
		}
		if s.Warm {
			sb.WriteString("+warm")
		}
		if s.PhaseSelect != PhaseUniform {
			fmt.Fprintf(&sb, "+phase=%s", s.PhaseSelect)
		}
		if s.MaxErr > 0 {
			fmt.Fprintf(&sb, "+maxerr%s", strconv.FormatFloat(s.MaxErr, 'g', -1, 64))
		}
		if s.NoCheckpoint {
			sb.WriteString("+nockpt")
		}
	}
	if s.TuneKey != "" {
		sb.WriteString("+" + s.TuneKey)
	}
	return sb.String()
}

// writeProgramKey writes the spec's program identity — the leading
// component every derived key shares.
func (s *Spec) writeProgramKey(sb *strings.Builder) {
	switch {
	case s.Workload != "":
		sb.WriteString(s.Workload)
		if s.Scale != 1 {
			fmt.Fprintf(sb, "@s%d", s.Scale)
		}
	case s.Program != nil && s.Program.Name != "":
		sb.WriteString(s.Program.Name)
	default:
		sb.WriteString("?")
	}
}

// writeEngineKey writes the spec's reuse engine, its geometry and its
// load policy: the part of a core's configuration a pooled core rebuilds
// in place (core.Core.SetEngine).
func (s *Spec) writeEngineKey(sb *strings.Builder) {
	switch s.Engine {
	case EngineRGID:
		fmt.Fprintf(sb, "rgid-%dx%d", s.streams(), s.entries())
	case EngineRI, EngineDIRValue, EngineDIRName:
		fmt.Fprintf(sb, "%s-%ds%dw", s.Engine, s.sets(), s.ways())
	default:
		sb.WriteString(s.Engine.String())
	}
	if s.Loads != LoadDefault {
		fmt.Fprintf(sb, "+loads=%s", s.Loads)
	}
}

// CheckpointKey returns the identity the checkpoint store keys off: the
// canonical key minus everything that varies within a sweep — engine,
// geometry, load policy, checking, sampling, warming and the fidelity
// suffix itself. A checkpoint is a functional architectural state at an
// absolute instruction position, and the deterministic emulator makes
// that state a function of the program alone, so every config of a
// batch, every re-run and every fidelity geometry over the same
// program+scale shares one checkpoint family. Individual entries append
// "#<position>" (the functional instruction count at the boundary) or
// "#end" (the program's final state).
//
// Like CanonicalKey, pre-built Programs are identified by Name: two
// distinct programs sharing a name would collide, so checkpointing is
// disabled for anonymous programs (see Runner).
func (s *Spec) CheckpointKey() string {
	var sb strings.Builder
	s.writeProgramKey(&sb)
	return sb.String()
}

// ShardKey returns the key fleet coordinators rendezvous-hash on: the
// CheckpointKey for checkpoint-eligible multi-fidelity specs, so every
// config sweeping the same program+scale homes to the same worker and
// warms that worker's checkpoint store, and the CanonicalKey for
// everything else (full-detail work keeps spreading across the fleet).
func (s *Spec) ShardKey() string {
	if s.FastForward > 0 && !s.NoCheckpoint {
		return s.CheckpointKey()
	}
	return s.CanonicalKey()
}

// poolKey identifies the spec's core construction for core pooling
// (CorePool): two specs with equal, non-empty pool keys build identical
// core.Configs, so a core built for one can be Reset and reused for the
// other. It is the engine key followed by the shape key. Traced specs
// return "" — the tracer is per-run state baked into the config — which
// disables pooling for them.
func (s *Spec) poolKey() string {
	if s.Tracer != nil {
		return ""
	}
	var sb strings.Builder
	s.writeEngineKey(&sb)
	sb.WriteString(s.shapeKey())
	return sb.String()
}

// shapeKey identifies the machine shape of the spec's core: everything
// core.New sizes from except the engine — the commit checker, the
// sampler geometry and the tuning. A pooled core of the same shape can
// serve the spec after rebuilding its engine (core.Core.SetEngine). It
// is the CanonicalKey minus the program (Reset re-targets a core), the
// engine, VerifyArch (a post-run comparison outside the core) and the
// fidelity suffix (a window plan, not a core). The plain shape is "".
func (s *Spec) shapeKey() string {
	var sb strings.Builder
	if s.Check {
		sb.WriteString("+check")
	}
	// The sampler is preallocated at construction, so sampled and
	// unsampled cores (and different geometries) are different builds.
	if s.SampleInterval > 0 {
		fmt.Fprintf(&sb, "+iv%d", s.SampleInterval)
		if s.SampleWindow > 0 {
			fmt.Fprintf(&sb, "w%d", s.SampleWindow)
		}
	}
	if s.TuneKey != "" {
		sb.WriteString("+" + s.TuneKey)
	}
	return sb.String()
}

// batchKey identifies which lockstep batch group the spec may join: all
// specs with the same key run the same instruction stream (one built
// program, one VerifyArch reference) and are free to differ in
// everything per-variant — engine, geometry, load policy, checking,
// sampling, tuning. ok=false marks the spec unbatchable: traced specs
// carry per-run state, a per-spec timeout has no meaning inside a group
// that shares a clock, and fast-forwarded specs run sample windows
// rather than the program from its entry, so each of these is a job of
// its own even with Batching enabled.
func (s *Spec) batchKey() (string, bool) {
	if s.Tracer != nil || s.Timeout != 0 || s.FastForward > 0 {
		return "", false
	}
	switch {
	case s.Workload != "":
		return fmt.Sprintf("%s@s%d", s.Workload, s.Scale), true
	case s.Program != nil:
		// Pointer identity: two distinct Program values are never assumed
		// equal, even with matching names.
		return fmt.Sprintf("prog:%p", s.Program), true
	}
	return "", false
}

func (s *Spec) streams() int {
	if s.Streams > 0 {
		return s.Streams
	}
	return 4
}

func (s *Spec) entries() int {
	if s.Entries > 0 {
		return s.Entries
	}
	return 64
}

func (s *Spec) sets() int {
	if s.Sets > 0 {
		return s.Sets
	}
	return 64
}

func (s *Spec) ways() int {
	if s.Ways > 0 {
		return s.Ways
	}
	return 4
}

// BuildProgram resolves the spec's program: the pre-built Program if set,
// otherwise the named registry workload built at Scale.
func (s *Spec) BuildProgram() (*isa.Program, error) {
	if s.Program != nil {
		return s.Program, nil
	}
	return workloads.Build(s.Workload, s.Scale)
}

// Config builds the core configuration the spec describes.
func (s *Spec) Config() (core.Config, error) {
	var cfg core.Config
	switch s.Engine {
	case EngineNone:
		cfg = core.DefaultConfig()
	case EngineRGID:
		cfg = core.MultiStreamConfig(s.streams(), s.entries())
	case EngineRI:
		cfg = core.RIConfigOf(s.sets(), s.ways())
	case EngineDIRValue:
		cfg = core.DIRConfigOf(s.sets(), s.ways(), reuse.DIRValue)
	case EngineDIRName:
		cfg = core.DIRConfigOf(s.sets(), s.ways(), reuse.DIRName)
	default:
		return core.Config{}, fmt.Errorf("sim: unknown engine %d", int(s.Engine))
	}
	if lp, ok := s.Loads.reuse(); ok {
		cfg.MS.LoadPolicy = lp
		cfg.RI.LoadPolicy = lp
		cfg.DIR.LoadPolicy = lp
	}
	cfg.DebugCheck = s.Check
	cfg.SampleInterval = s.SampleInterval
	cfg.SampleWindow = s.SampleWindow
	cfg.Tracer = s.Tracer
	if s.Tune != nil {
		s.Tune(&cfg)
	}
	return cfg, nil
}
