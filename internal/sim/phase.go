package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"mssr/internal/ckpt"
	"mssr/internal/core"
	"mssr/internal/emu"
	"mssr/internal/isa"
	"mssr/internal/stats"
)

// This file is the phase-selection half of checkpointed multi-fidelity
// sampling: a one-time profiling pass tiles the program uniformly and
// records each tile's signature vector (IPC, reuse rate, MPKI, branch
// MPKI), small-k k-means clusters the tiles into phases, and the job run
// simulates one representative window per phase — weighted by cluster
// population, SimPoint-style — instead of every uniform tile. The
// profiling pass captures a checkpoint at every tile boundary and
// persists its summary through the checkpoint store, so a warm sweep
// does no profiling (and no functional fast-forward) at all.

// profileVersion guards the persisted profile blob; readers discard
// versions they do not know and re-profile.
const profileVersion = 1

// phaseK is the clustering arity: enough clusters to separate the
// workloads' coarse phases at the standard 48-tile profile without
// over-fragmenting small-period runs. k is clamped to the tile count.
const phaseK = 8

// phaseProfile is the persisted outcome of one profiling pass over one
// program + fidelity geometry: where each uniform tile's window starts
// (a functional instruction position, which is also its checkpoint
// name), the tile signature vectors, and the program totals a
// phase-selected run reports without re-running the tail.
type phaseProfile struct {
	Version        int      `json:"version"`
	FastForward    uint64   `json:"fast_forward"`
	DetailedWindow uint64   `json:"detailed_window"`
	Periods        int      `json:"periods"`
	Pos            []uint64 `json:"pos"`
	// Pre is each tile's warmup checkpoint position: warmupLead
	// instructions before the window start, where a phase-selected run
	// restores and re-trains the caches and predictors in excluded
	// detail before measuring the window itself.
	Pre   []uint64  `json:"pre"`
	IPC   []float64 `json:"ipc"`
	Reuse []float64 `json:"reuse"`
	MPKI  []float64 `json:"mpki"`
	// JumpIPC is the calibration measurement: each representative tile's
	// window IPC at the canonical profiling configuration, measured the
	// way a phase-selected run measures it (checkpoint jump plus detailed
	// warmup lead) rather than the way the uniform profiling pass does
	// (warmed functional skip). A sweep divides its own measurement by
	// this figure to isolate the config effect from the jump treatment.
	// Zero at non-representative tiles.
	JumpIPC      []float64  `json:"jump_ipc"`
	BranchMPKI   []float64  `json:"branch_mpki"`
	TotalRetired uint64     `json:"total_retired"`
	Arch         emu.Result `json:"arch"`
}

// valid reports whether a decoded profile is usable: current version,
// matching geometry, and coherent per-tile arrays.
func (p *phaseProfile) valid(s *Spec) bool {
	n := len(p.Pos)
	return p.Version == profileVersion && n > 0 &&
		p.FastForward == s.FastForward && p.DetailedWindow == s.DetailedWindow &&
		p.Periods == s.SamplePeriods && len(p.Pre) == n && len(p.JumpIPC) == n &&
		len(p.IPC) == n && len(p.Reuse) == n && len(p.MPKI) == n && len(p.BranchMPKI) == n
}

// warmupLead is how many instructions of excluded detailed execution
// precede each phase-selected measurement window: the jump lands with
// the previous representative's (unrelated) cache and predictor state,
// and the lead re-trains them on the window's own approach path. Two
// windows' worth keeps a representative's total detail at 3x a uniform
// period's 1.25x while recovering most of the warmed-skip accuracy.
func warmupLead(s *Spec) uint64 { return 2 * s.DetailedWindow }

// profileKey returns the checkpoint-store key of the spec's phase
// profile. Unlike raw checkpoints, a profile depends on the fidelity
// geometry (it describes the uniform tiling), so the key carries it.
func profileKey(s *Spec) string {
	var sb strings.Builder
	s.writeProgramKey(&sb)
	fmt.Fprintf(&sb, "#profile%d+ff%d+dw%d+sp%d", profileVersion, s.FastForward, s.DetailedWindow, s.SamplePeriods)
	return sb.String()
}

// profileFor returns the phase profile for the spec's program + fidelity
// geometry, computing it at most once per Runner (single-flight) and
// reusing a profile persisted in the checkpoint store when one exists.
func (r *Runner) profileFor(ctx context.Context, s *Spec, prog *isa.Program, store *ckpt.Store) (*phaseProfile, error) {
	key := profileKey(s)
	for {
		r.profMu.Lock()
		if p, ok := r.profiles[key]; ok {
			r.profMu.Unlock()
			return p, nil
		}
		if ch, running := r.profRuns[key]; running {
			r.profMu.Unlock()
			select {
			case <-ch:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			continue // the flight finished; re-check the cache
		}
		if r.profiles == nil {
			r.profiles = make(map[string]*phaseProfile)
			r.profRuns = make(map[string]chan struct{})
		}
		ch := make(chan struct{})
		r.profRuns[key] = ch
		r.profMu.Unlock()

		p, err := r.buildProfile(ctx, s, prog, store, key)
		r.profMu.Lock()
		if err == nil {
			r.profiles[key] = p
		}
		delete(r.profRuns, key)
		close(ch)
		r.profMu.Unlock()
		return p, err
	}
}

// buildProfile loads a persisted profile or runs the profiling pass: a
// uniform plan at the canonical profiling configuration (the default
// multi-stream engine, warmed functional skips), which captures a
// checkpoint at every tile boundary and warm-up position as a side
// effect, followed by a calibration plan that re-measures each selected
// representative the way a phase-selected run will (checkpoint jump plus
// detailed warm-up lead). The profile is measured at rgid-4x64 only: its
// features steer the clustering and its IPC figures anchor the ratio
// estimate of every config sweeping the program, which assumes the
// config's effect on a representative carries over to its cluster. That
// does not always hold: a k-means run has read bzip2's +2.0% no-reuse
// gain at scale 1 as +39.5%.
func (r *Runner) buildProfile(ctx context.Context, s *Spec, prog *isa.Program, store *ckpt.Store, key string) (*phaseProfile, error) {
	if store != nil {
		if blob, ok := store.Get(key); ok {
			var p phaseProfile
			if err := json.Unmarshal(blob, &p); err == nil && p.valid(s) {
				return &p, nil
			}
		}
	}
	ps := Spec{
		Workload:       s.Workload,
		Program:        s.Program,
		Scale:          s.Scale,
		Engine:         EngineRGID,
		VerifyArch:     true, // records the program's final state in the profile
		Warm:           true, // warmed skips: the tile IPCs anchor the estimate
		FastForward:    s.FastForward,
		DetailedWindow: s.DetailedWindow,
		SamplePeriods:  s.SamplePeriods,
	}
	p := &phaseProfile{
		Version:        profileVersion,
		FastForward:    s.FastForward,
		DetailedWindow: s.DetailedWindow,
		Periods:        s.SamplePeriods,
	}
	tiles := uniformPlan(&ps)
	tiles.preLead = warmupLead(s)
	tiles.observe = func(_ int, pre, pos uint64, win *stats.Stats) {
		var br float64
		if win.Retired > 0 {
			br = 1000 * float64(win.BranchMispredicts) / float64(win.Retired)
		}
		p.Pos = append(p.Pos, pos)
		p.Pre = append(p.Pre, pre)
		p.IPC = append(p.IPC, win.IPC())
		p.Reuse = append(p.Reuse, win.ReuseRate())
		p.MPKI = append(p.MPKI, win.MPKI())
		p.BranchMPKI = append(p.BranchMPKI, br)
	}
	var pres Result
	r.execute(ctx, &ps, prog, core.New(prog, core.MultiStreamConfig(4, 64)), &pres, store, tiles)
	if pres.Err != nil {
		return nil, fmt.Errorf("phase profiling: %w", pres.Err)
	}
	if len(p.Pos) == 0 {
		return nil, fmt.Errorf("phase profiling: no sample windows (ff=%d exceeds the program)", s.FastForward)
	}
	p.TotalRetired = pres.TotalRetired
	p.Arch = pres.Arch

	// Calibration pass: measure each representative's window at the
	// canonical configuration exactly the way a phase-selected run will,
	// on a fresh core. The sweep's ratio of measured over calibrated IPC
	// then isolates the config effect: a sweep at the canonical
	// configuration reproduces this execution bit for bit, its ratios
	// come out exactly 1, and the estimate collapses to the warm-profiled
	// cluster means.
	p.JumpIPC = make([]float64, len(p.Pos))
	reps := selectPhases(p, phaseK)
	cal := phasePlan(p, reps)
	cal.observe = func(i int, _, _ uint64, win *stats.Stats) {
		if win.Cycles > 0 {
			p.JumpIPC[reps[i].Tile] = float64(win.Retired) / float64(win.Cycles)
		}
	}
	var cres Result
	r.execute(ctx, &ps, prog, core.New(prog, core.MultiStreamConfig(4, 64)), &cres, store, cal)
	if cres.Err != nil {
		return nil, fmt.Errorf("phase calibration: %w", cres.Err)
	}

	if store != nil {
		if blob, err := json.Marshal(p); err == nil {
			store.Put(key, blob)
		}
	}
	return p, nil
}

// phasePlan measures each representative's tile, in the order given:
// the window jumps to the tile's warm-up checkpoint (warmupLead before
// the window start, never replaying detail) and re-trains the caches and
// predictors over the lead in excluded detail before measuring. Each
// window stands for its cluster: the estimate scales the cluster's
// harmonic-mean profile IPC by the representative's measured-over-
// calibrated ratio, so the jump treatment divides out and the config
// effect remains. The program totals come from the profile, so a fully
// warm phased run emulates zero functional instructions.
func phasePlan(prof *phaseProfile, reps []phaseRep) *plan {
	p := &plan{floor: min(4, len(reps)), prof: prof}
	for _, rep := range reps {
		pre, pos := prof.Pre[rep.Tile], prof.Pos[rep.Tile]
		p.windows = append(p.windows, window{abs: true, at: pre, lead: pos - pre,
			weight: float64(rep.Weight), mean: rep.MeanIPC, calib: prof.JumpIPC[rep.Tile]})
	}
	return p
}

// phaseRep is one selected representative window: the uniform tile that
// sits closest to its cluster's centroid, weighted by how many tiles the
// cluster holds. MeanIPC carries the cluster's harmonic-mean profile
// IPC — tiles hold equal instruction counts, so cycles (and the
// program's aggregate IPC) add harmonically — and the phased estimate
// scales it by the representative's measured-over-calibrated ratio (a
// ratio estimator), so within-cluster IPC spread the clustering could
// not separate still reaches the weighted estimate.
type phaseRep struct {
	Tile    int
	Weight  int
	MeanIPC float64
}

func dist2(a, b []float64) float64 {
	var d float64
	for i := range a {
		t := a[i] - b[i]
		d += t * t
	}
	return d
}

// selectPhases clusters the profile's per-tile signature vectors with
// deterministic small-k k-means — z-scored features, farthest-point
// (maximin) initialization from tile 0, Lloyd iterations with
// lowest-index tie-breaks, no randomness anywhere — and returns one
// representative per cluster, ordered most-populous first: the
// confidence order adaptive stopping consumes (the heaviest clusters
// dominate the weighted estimate, so they are sampled before any early
// stop).
func selectPhases(p *phaseProfile, k int) []phaseRep {
	n := len(p.Pos)
	if k > n {
		k = n
	}
	// z-score each signature dimension so no unit dominates the distance;
	// a constant dimension carries no phase signal and drops out.
	dims := [][]float64{p.IPC, p.Reuse, p.MPKI, p.BranchMPKI}
	feat := make([][]float64, n)
	for i := range feat {
		feat[i] = make([]float64, len(dims))
	}
	for d, col := range dims {
		var mean float64
		for _, v := range col {
			mean += v
		}
		mean /= float64(n)
		var ss float64
		for _, v := range col {
			ss += (v - mean) * (v - mean)
		}
		if ss == 0 {
			continue
		}
		std := math.Sqrt(ss / float64(n))
		for i, v := range col {
			feat[i][d] = (v - mean) / std
		}
	}

	// Maximin initialization: start from tile 0, then repeatedly add the
	// tile farthest from its nearest chosen centroid (strict > keeps the
	// lowest index on ties). Duplicate-feature tiles stop the growth —
	// fewer distinct signatures than k means fewer clusters.
	chosen := []int{0}
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = dist2(feat[i], feat[0])
	}
	for len(chosen) < k {
		best, bestD := -1, 0.0
		for i := 0; i < n; i++ {
			if minDist[i] > bestD {
				best, bestD = i, minDist[i]
			}
		}
		if best < 0 {
			break
		}
		chosen = append(chosen, best)
		for i := range minDist {
			if d := dist2(feat[i], feat[best]); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	k = len(chosen)
	cent := make([][]float64, k)
	for j, t := range chosen {
		cent[j] = append([]float64(nil), feat[t]...)
	}

	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	for iter := 0; iter < 100; iter++ {
		changed := false
		for i := 0; i < n; i++ {
			best, bestD := 0, dist2(feat[i], cent[0])
			for j := 1; j < k; j++ {
				if d := dist2(feat[i], cent[j]); d < bestD {
					best, bestD = j, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed {
			break
		}
		counts := make([]int, k)
		sums := make([][]float64, k)
		for j := range sums {
			sums[j] = make([]float64, len(dims))
		}
		for i := 0; i < n; i++ {
			counts[assign[i]]++
			for d := range feat[i] {
				sums[assign[i]][d] += feat[i][d]
			}
		}
		for j := 0; j < k; j++ {
			if counts[j] == 0 {
				continue // an emptied cluster keeps its centroid
			}
			for d := range sums[j] {
				cent[j][d] = sums[j][d] / float64(counts[j])
			}
		}
	}

	var reps []phaseRep
	for j := 0; j < k; j++ {
		best, bestD, w := -1, 0.0, 0
		var cpiSum float64
		cpiN := 0
		for i := 0; i < n; i++ {
			if assign[i] != j {
				continue
			}
			w++
			if p.IPC[i] > 0 {
				cpiSum += 1 / p.IPC[i]
				cpiN++
			}
			if d := dist2(feat[i], cent[j]); best < 0 || d < bestD {
				best, bestD = i, d
			}
		}
		if best >= 0 {
			rep := phaseRep{Tile: best, Weight: w}
			if cpiSum > 0 {
				rep.MeanIPC = float64(cpiN) / cpiSum
			}
			reps = append(reps, rep)
		}
	}
	sort.Slice(reps, func(a, b int) bool {
		if reps[a].Weight != reps[b].Weight {
			return reps[a].Weight > reps[b].Weight
		}
		return reps[a].Tile < reps[b].Tile
	})
	return reps
}
