package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"

	"mssr/internal/ckpt"
	"mssr/internal/sim"
	"mssr/internal/workloads"
)

// CheckpointedWorkload is one workload's checkpoint-warm, phase-selected
// measurement against its full-detail reference and its PR8-style
// uniform warm-sampling baseline.
type CheckpointedWorkload struct {
	Name  string `json:"name"`
	Suite string `json:"suite"`
	// Retired is the workload's dynamic instruction count; Windows is how
	// many representative windows the phase selection simulated in detail.
	Retired uint64 `json:"retired"`
	Windows int    `json:"windows"`
	// FullIPC is the full-detail ground truth; SampledIPC is the
	// phase-weighted estimate; ErrorPct their relative difference — the
	// accuracy the CI gate bounds. ErrorEstPct is the run's own
	// statistical confidence figure.
	FullIPC     float64 `json:"ipc_full"`
	SampledIPC  float64 `json:"ipc_sampled"`
	ErrorPct    float64 `json:"ipc_error_pct"`
	ErrorEstPct float64 `json:"ipc_error_est_pct"`
	// UniformMIPS is the PR8-configuration baseline: uniform warmed
	// sampling, checkpoints disabled. WarmMIPS is the checkpoint-warm
	// phase-selected effective throughput; Speedup is their ratio.
	UniformMIPS float64 `json:"mips_uniform"`
	WarmMIPS    float64 `json:"mips_warm"`
	Speedup     float64 `json:"speedup"`
	// CkptHits counts boundary states the warm run restored; FFExecuted
	// counts the functional instructions it still had to emulate — the
	// warm-path contract pins this to zero.
	CkptHits   int    `json:"ckpt_hits"`
	FFExecuted uint64 `json:"ff_executed"`
}

// CheckpointedResult is the checkpoint-acceleration benchmark behind
// BENCH_PR10.json: every SPEC-like workload run full-detail (accuracy
// reference), as a PR8-style uniform warm sweep (throughput baseline),
// and as a checkpoint-warm phase-selected sweep, all on the same pool.
type CheckpointedResult struct {
	Scale   int    `json:"scale"`
	Engine  string `json:"engine"`
	Host    string `json:"host"`
	Periods int    `json:"periods"`
	// UniformMIPS and WarmMIPS are suite aggregates (total program
	// instructions over total wall); SpeedupVsUniform is their same-host
	// ratio — the figure the CI speedup gate checks against the PR8
	// configuration.
	UniformMIPS      float64 `json:"mips_uniform"`
	WarmMIPS         float64 `json:"mips_warm"`
	SpeedupVsUniform float64 `json:"speedup_vs_uniform"`
	// MaxErrorPct is the worst per-workload IPC error of the
	// phase-selected estimates.
	MaxErrorPct float64 `json:"max_ipc_error_pct"`
	// Checkpoints and CheckpointBytes describe the store after the sweep.
	Checkpoints     int                    `json:"checkpoints"`
	CheckpointBytes int64                  `json:"checkpoint_bytes"`
	Workloads       []CheckpointedWorkload `json:"workloads"`
}

// Checkpointed measures checkpoint-accelerated, phase-selected
// multi-fidelity sampling. Like Fidelity it simulates in-process on one
// warm pool and times measured passes only. Three sweeps per workload:
// full detail (the accuracy reference and parameter probe), the PR8
// uniform warm configuration with checkpoints disabled (the throughput
// baseline), and a k-means phase-selected sweep against a shared
// checkpoint store — run once cold to profile and capture, then once
// measured, where every boundary restores and zero functional
// fast-forward instructions execute.
func Checkpointed(scale int) (*CheckpointedResult, error) {
	ctx := context.Background()
	store := ckpt.NewMemory(-1)
	runner := &sim.Runner{Jobs: 1, Checkpoints: store}

	type work struct {
		name, suite string
		base        sim.Spec
	}
	var works []work
	var fullSpecs []sim.Spec
	for _, suite := range []string{"spec2006", "spec2017"} {
		for _, w := range workloads.Suite(suite) {
			s := sim.Spec{Label: w.Name, Workload: w.Name, Scale: scale,
				Engine: sim.EngineRGID, Streams: 4, Entries: 64}
			works = append(works, work{w.Name, suite, s})
			fullSpecs = append(fullSpecs, s)
		}
	}

	if _, err := runner.Run(ctx, fullSpecs); err != nil { // warm the pool
		return nil, err
	}
	full, err := runner.Run(ctx, fullSpecs)
	if err != nil {
		return nil, err
	}

	// The PR8 baseline: uniform warmed sampling with checkpoints off, so
	// every period re-emulates its functional skip exactly as PR8 did.
	uniSpecs := make([]sim.Spec, len(works))
	for i := range works {
		uniSpecs[i] = fidelitySpec(works[i].base, full[i].Stats.Retired)
		uniSpecs[i].NoCheckpoint = true
	}
	if _, err := runner.Run(ctx, uniSpecs); err != nil { // warm the fidelity path
		return nil, err
	}
	uni, err := runner.Run(ctx, uniSpecs)
	if err != nil {
		return nil, err
	}

	// The checkpointed sweep: same sampling geometry, k-means window
	// placement. Warm must be off: phased windows jump to checkpoints
	// and never warm a skip, and Validate rejects the combination (the
	// profiling pass warms its own skips regardless). The cold pass
	// profiles each program and fills the store; the measured pass
	// restores everything.
	ckSpecs := make([]sim.Spec, len(works))
	for i := range works {
		ckSpecs[i] = fidelitySpec(works[i].base, full[i].Stats.Retired)
		ckSpecs[i].Warm = false
		ckSpecs[i].PhaseSelect = sim.PhaseKMeans
	}
	if _, err := runner.Run(ctx, ckSpecs); err != nil { // profile + capture
		return nil, err
	}
	warm, err := runner.Run(ctx, ckSpecs)
	if err != nil {
		return nil, err
	}

	r := &CheckpointedResult{
		Scale:           scale,
		Engine:          "rgid-4x64",
		Host:            runtime.GOOS + "/" + runtime.GOARCH,
		Periods:         fidelityPeriods,
		Checkpoints:     store.Len(),
		CheckpointBytes: store.Size(),
	}
	var uniRetired, warmRetired uint64
	var uniWall, warmWall float64
	for i := range works {
		fr, ur, wr := full[i], uni[i], warm[i]
		if fr.Err != nil {
			return nil, fmt.Errorf("%s full detail: %w", works[i].name, fr.Err)
		}
		if ur.Err != nil {
			return nil, fmt.Errorf("%s uniform baseline: %w", works[i].name, ur.Err)
		}
		if wr.Err != nil {
			return nil, fmt.Errorf("%s checkpoint-warm: %w", works[i].name, wr.Err)
		}
		fullIPC := fr.Stats.IPC()
		sampled := wr.ExtrapolatedIPC
		errPct := 0.0
		if fullIPC > 0 {
			errPct = 100 * (sampled - fullIPC) / fullIPC
			if errPct < 0 {
				errPct = -errPct
			}
		}
		w := CheckpointedWorkload{
			Name:        works[i].name,
			Suite:       works[i].suite,
			Retired:     fr.Stats.Retired,
			Windows:     wr.Windows,
			FullIPC:     fullIPC,
			SampledIPC:  sampled,
			ErrorPct:    errPct,
			ErrorEstPct: 100 * wr.IPCErrorEst,
			UniformMIPS: ur.MIPS,
			WarmMIPS:    wr.MIPS,
			CkptHits:    wr.CkptHits,
			FFExecuted:  wr.FFExecuted,
		}
		if w.UniformMIPS > 0 {
			w.Speedup = w.WarmMIPS / w.UniformMIPS
		}
		if w.ErrorPct > r.MaxErrorPct {
			r.MaxErrorPct = w.ErrorPct
		}
		r.Workloads = append(r.Workloads, w)
		uniRetired += ur.TotalRetired
		uniWall += ur.Wall.Seconds()
		warmRetired += wr.TotalRetired
		warmWall += wr.Wall.Seconds()
	}
	mips := func(retired uint64, wall float64) float64 {
		if wall <= 0 {
			return 0
		}
		return float64(retired) / wall / 1e6
	}
	r.UniformMIPS = mips(uniRetired, uniWall)
	r.WarmMIPS = mips(warmRetired, warmWall)
	if r.UniformMIPS > 0 {
		r.SpeedupVsUniform = r.WarmMIPS / r.UniformMIPS
	}
	return r, nil
}

// JSON renders the BENCH_PR10.json document.
func (r *CheckpointedResult) JSON() string {
	b, _ := json.MarshalIndent(r, "", "  ")
	return string(b) + "\n"
}

// CheckError fails when any workload's phase-selected IPC estimate
// misses its full-detail reference by more than maxPct percent.
func (r *CheckpointedResult) CheckError(maxPct float64) error {
	for _, w := range r.Workloads {
		if w.ErrorPct > maxPct {
			return fmt.Errorf("checkpointed error gate: %s sampled IPC %.4f vs full %.4f (%.2f%% > %.2f%% bound)",
				w.Name, w.SampledIPC, w.FullIPC, w.ErrorPct, maxPct)
		}
	}
	return nil
}

// CheckSpeedup fails when the checkpoint-warm effective-throughput
// multiple over the PR8 uniform baseline falls below min.
func (r *CheckpointedResult) CheckSpeedup(min float64) error {
	if r.SpeedupVsUniform < min {
		return fmt.Errorf("checkpointed speedup gate: %.2fx warm over uniform baseline, below the %.2fx floor (%.3f vs %.3f MIPS)",
			r.SpeedupVsUniform, min, r.WarmMIPS, r.UniformMIPS)
	}
	return nil
}

// CheckWarmPath fails unless every measured run was fully warm: all
// boundaries restored from the checkpoint store and zero functional
// fast-forward instructions re-executed. This is the structural claim
// behind the speedup, so it gates unconditionally in CI.
func (r *CheckpointedResult) CheckWarmPath() error {
	for _, w := range r.Workloads {
		if w.FFExecuted != 0 || w.CkptHits == 0 {
			return fmt.Errorf("checkpointed warm-path gate: %s re-executed %d functional instructions (%d checkpoints restored)",
				w.Name, w.FFExecuted, w.CkptHits)
		}
	}
	return nil
}

// Render prints the accuracy/throughput table.
func (r *CheckpointedResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Checkpoint-warm phase-selected sampling (scale %d, %s, %s; %d-period profile, k-means windows)\n",
		r.Scale, r.Engine, r.Host, r.Periods)
	fmt.Fprintf(&sb, "%-14s%10s%8s%10s%9s%9s%12s%11s%9s%7s\n",
		"benchmark", "retired", "windows", "ipc-full", "sampled", "err%", "uni-MIPS", "warm-MIPS", "speedup", "hits")
	for _, w := range r.Workloads {
		fmt.Fprintf(&sb, "%-14s%10d%8d%10.4f%9.4f%9.2f%12.2f%11.2f%8.1fx%7d\n",
			w.Name, w.Retired, w.Windows, w.FullIPC, w.SampledIPC, w.ErrorPct,
			w.UniformMIPS, w.WarmMIPS, w.Speedup, w.CkptHits)
	}
	fmt.Fprintf(&sb, "aggregate: %.3f MIPS uniform warm baseline, %.3f checkpoint-warm (%.2fx); worst IPC error %.2f%%\n",
		r.UniformMIPS, r.WarmMIPS, r.SpeedupVsUniform, r.MaxErrorPct)
	fmt.Fprintf(&sb, "checkpoint store: %d states, %.1f KiB\n",
		r.Checkpoints, float64(r.CheckpointBytes)/1024)
	return sb.String()
}
