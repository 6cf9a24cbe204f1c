package sim

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"mssr/internal/ckpt"
	"mssr/internal/core"
	"mssr/internal/emu"
	"mssr/internal/isa"
	"mssr/internal/obs"
	"mssr/internal/stats"
)

// runFidelity executes one multi-fidelity job (Spec.FastForward > 0) on an
// already-acquired core. Uniform runs tile {fast-forward, detailed window}
// pairs across the program sequentially; phase-selected runs (PhaseKMeans)
// jump straight to k-means-chosen representative windows of a one-time
// profiling pass. Both are window plans over the one executor, which
// restores window-start states from the Runner's checkpoint store when it
// can and captures the states it had to emulate, so repeated sweeps over
// the same program skip the functional prefix entirely (Result.FFExecuted
// == 0 on a fully warm run).
//
// The caller (runJob) owns core pooling, wall-clock accounting and the
// observer; runFidelity fills res in place.
func (r *Runner) runFidelity(ctx context.Context, s *Spec, prog *isa.Program, c *core.Core, res *Result) {
	store := r.ckptStore(s)
	p := uniformPlan(s)
	if s.PhaseSelect == PhaseKMeans {
		prof, err := r.profileFor(ctx, s, prog, store)
		if err != nil {
			res.Err = err
			return
		}
		p = phasePlan(prof, selectPhases(prof, phaseK))
	}
	r.execute(ctx, s, prog, c, res, store, p)
}

// boundaryKey names the checkpoint of the architectural state reached
// after pos functionally executed instructions. The deterministic
// emulator makes that state a function of (program, pos) alone, so the
// key carries nothing else.
func boundaryKey(ckey string, pos uint64) string {
	return ckey + "#" + strconv.FormatUint(pos, 10)
}

// endKey names the checkpoint of the program's final state.
func endKey(ckey string) string { return ckey + "#end" }

// restoreBoundary restores em from the named checkpoint, counting the
// hit or miss on res. A blob that fails to restore (one written by an
// older encoding, say) counts as a miss and is deleted from the store,
// so the capture that follows the caller's re-emulation replaces it.
func restoreBoundary(store *ckpt.Store, key string, em *emu.Emulator, res *Result) bool {
	if blob, ok := store.Get(key); ok {
		if err := em.RestoreBinary(blob); err == nil {
			res.CkptHits++
			return true
		}
		store.Delete(key)
	}
	res.CkptMisses++
	return false
}

// captureBoundary writes em's current state into the store unless it is
// already present (checkpoint contents are deterministic per key, so a
// re-encode would be pure churn).
func captureBoundary(store *ckpt.Store, key string, em *emu.Emulator) {
	if store == nil || store.Contains(key) {
		return
	}
	store.Put(key, em.AppendBinary(nil))
}

// A window is one detailed measurement of a window plan.
type window struct {
	// abs places the window's detail at the absolute functional position
	// at, a checkpoint jump. Otherwise detail starts the spec's
	// FastForward past the previous window's end.
	abs bool
	at  uint64
	// lead is the measurement-excluded detailed warm-up that precedes
	// the measured DetailedWindow.
	lead uint64
	// weight 0 pools the window's own (retired, cycles) into the
	// estimate, as a uniform tile does. A phase window stands for weight
	// tiles instead: its IPC, scaled to mean*ipc/calib when both are set,
	// adds (weight, weight/ipc) to the pooled ratio, which makes the
	// estimate a weighted harmonic mean.
	weight, mean, calib float64
}

// A plan is the windows one sampled pass measures and how it measures
// them. There are four: uniform (a job's equal tiles), profiling
// (uniform tiles with warmed skips, observed), calibration (the phase
// representatives, observed) and phased (the representatives,
// weighted by cluster population).
type plan struct {
	windows []window
	// warm runs every skip through Core.WarmStep. Warming the core is
	// such a skip's point, so a warm plan captures checkpoints but never
	// restores them.
	warm bool
	// floor is the adaptive-stopping minimum window count.
	floor int
	// preLead, when set, also stops each relative skip this far before
	// its window (never behind the previous window's start) to capture
	// a checkpoint: the profiling pass records these warm-up positions
	// for phased runs to jump to.
	preLead uint64
	// observe, when set, sees each measured window: its plan index,
	// warm-up position, start and counters. Observed plans are internal
	// passes, not jobs, so they stay quiet on OnInterval and OnWindow.
	observe func(i int, pre, start uint64, win *stats.Stats)
	// prof supplies a phased run's program totals and end state; a plan
	// without one finishes the program itself.
	prof *phaseProfile
}

// uniformPlan tiles the program with SamplePeriods windows (at least
// one), each the spec's FastForward past the previous one's end. A
// quarter-window detailed warm-up precedes each window, excluded from
// its counters (and lumped into FastForwarded), so short windows are
// not biased by their cold-pipeline transient.
func uniformPlan(s *Spec) *plan {
	ws := make([]window, max(s.SamplePeriods, 1))
	for i := range ws {
		ws[i].lead = s.DetailedWindow / 4
	}
	return &plan{windows: ws, warm: s.Warm, floor: min(8, len(ws))}
}

// execute runs plan p on core c and fills res. For each window it seeks
// the functional emulator to the window's start, seeds the core there,
// runs the lead in excluded detail and the window in measured detail,
// and folds the window's counters and intervals into res and its IPC
// into the estimate. Caches and predictors persist across windows
// (ResetWindow), as they would in a contiguous run. It stops when the
// plan is exhausted, the program ends or the estimate meets s.MaxErr.
//
// The seek restores the start from the store unless the plan warms.
// Otherwise it emulates: from the program entry when the emulator is
// past the start, replaying the previous window's detailed retirements
// unwarmed and warming only the skip, and it captures every boundary it
// reaches. With DetailedWindow == 0 the single window runs to HALT and
// the run is exact; otherwise the totals come from the plan's profile or
// from finishing the program on the emulator (or restoring its end
// state), and the result is an extrapolation from the sampled windows.
func (r *Runner) execute(ctx context.Context, s *Spec, prog *isa.Program, c *core.Core, res *Result, store *ckpt.Store, p *plan) {
	em := emu.New(prog)
	ckey := s.CheckpointKey()
	restore := store != nil && !p.warm
	var hook func(*emu.StepInfo)
	if p.warm {
		hook = c.WarmStep
	}
	live := p.observe == nil
	if live && r.OnInterval != nil {
		// The live tap needs the fidelity annotations the final Result
		// gets post hoc, so the hook stamps Mode/Window at fire time.
		// ResetWindow preserves the hook, so one installation covers
		// every window.
		c.SetIntervalHook(func(iv *obs.Interval) {
			tagged := *iv
			tagged.Mode = obs.ModeDetail
			tagged.Window = res.Windows + 1
			r.OnInterval(res.Index, res.Key, tagged)
		})
	}

	res.Stats = &stats.Stats{}
	var est estimate
	var warm, win stats.Stats
	var detailRetired uint64
	var start, end uint64 // the previous window's detail span
	halted := false
	for i := range p.windows {
		w := &p.windows[i]
		if i > 0 {
			// Keep the caches and predictors warmed so far; only the
			// pipeline, architectural state and counters restart.
			c.ResetWindow(prog)
		}
		target, replay, pre := w.at, w.at, uint64(0)
		if !w.abs {
			target, replay = end+s.FastForward, end
			if p.preLead > 0 {
				pre = target - min(p.preLead, target-start)
			}
		}
		if !restore || !restoreBoundary(store, boundaryKey(ckey, target), em, res) {
			if em.Halted || em.Retired > target {
				em.Reset(prog)
			}
			before := em.Retired
			em.FastForward(replay-em.Retired, nil)
			if pre > em.Retired {
				em.FastForward(pre-em.Retired, hook)
				if !em.Halted {
					captureBoundary(store, boundaryKey(ckey, pre), em)
				}
			}
			em.FastForward(target-em.Retired, hook)
			res.FFExecuted += em.Retired - before
			if !em.Halted {
				captureBoundary(store, boundaryKey(ckey, target), em)
			}
		}
		if em.Halted {
			if w.abs {
				res.Err = fmt.Errorf("phase jump: program ended before position %d (profile stale?)", target)
				return
			}
			break // the program ended inside the skip; nothing left to measure
		}
		start = target
		c.EndWarmup()
		st := em.State()
		c.SeedFrom(&st)
		if live && r.OnWindow != nil {
			r.OnWindow(res.Index, res.Key, res.Windows+1, len(p.windows))
		}
		runErr := c.RunWindow(ctx, w.lead, s.DetailedWindow, &warm, &win)
		res.Stats.Add(&win)
		res.Windows++
		detailRetired += win.Retired
		est.add(w, &win)
		if p.observe != nil {
			p.observe(i, pre, start, &win)
		}
		for _, iv := range c.Intervals() {
			iv.Mode = obs.ModeDetail
			iv.Window = res.Windows
			res.Intervals = append(res.Intervals, iv)
		}
		res.IntervalsDropped += c.IntervalsDropped()
		if runErr != nil {
			res.Err = runErr
			return
		}
		if !w.abs && c.Halted() {
			halted = true
			break
		}
		end = start + c.Stats.Retired
		if converged(s.MaxErr, est.ipc, p.floor) {
			break // the estimate already meets the requested error bound
		}
	}

	if halted {
		// The detailed core committed HALT: the end state is exact.
		got := c.Result()
		res.TotalRetired = got.Retired
		res.FastForwarded = got.Retired - detailRetired
		if s.DetailedWindow > 0 {
			// The final bounded window happened to reach HALT: the totals
			// are exact, but the IPC figures are still window samples, so
			// keep reporting the sampled estimate and its error bar.
			est.finalize(res)
		}
		if s.VerifyArch {
			verifyArch(res, got, reference(prog))
		}
		return
	}
	if p.prof != nil {
		res.TotalRetired = p.prof.TotalRetired
		if s.VerifyArch {
			res.Arch = p.prof.Arch
		}
	} else {
		// Obtain the program's end state — restored when the store holds
		// it, finished functionally otherwise.
		if !restore || !restoreBoundary(store, endKey(ckey), em, res) {
			before := em.Retired
			if err := em.Run(1 << 40); err != nil {
				res.Err = fmt.Errorf("emulator: %w", err)
				return
			}
			res.FFExecuted += em.Retired - before
			captureBoundary(store, endKey(ckey), em)
		}
		res.TotalRetired = em.Retired
		if s.VerifyArch {
			// No mid-pipeline core state exists to compare in sampled
			// mode; the commit-time checker (Spec.Check) covers the
			// windows.
			res.Arch = em.Result()
		}
	}
	res.Extrapolated = true
	if res.TotalRetired >= detailRetired {
		res.FastForwarded = res.TotalRetired - detailRetired
	}
	est.finalize(res)
}

// estimate is the sampled IPC estimator: one pooled ratio num/den over
// the measured windows, and the window IPC samples behind its error bar.
type estimate struct {
	num, den float64
	ipc      []float64
}

// add folds one measured window into the estimate. Integer sums below
// 2^53 are exact in float64, so a uniform run's pooled ratio is the
// ratio of its integer retire and cycle totals.
func (e *estimate) add(w *window, win *stats.Stats) {
	if w.weight == 0 {
		e.num += float64(win.Retired)
		e.den += float64(win.Cycles)
	}
	if win.Cycles == 0 {
		return
	}
	ipc := float64(win.Retired) / float64(win.Cycles)
	if w.mean > 0 && w.calib > 0 {
		ipc = w.mean * ipc / w.calib
	}
	e.ipc = append(e.ipc, ipc)
	if w.weight > 0 && ipc > 0 {
		e.num += w.weight
		e.den += w.weight / ipc
	}
}

// finalize fills the sampled-estimate fields, the single place the IPC
// estimate and its confidence figure are defined: ExtrapolatedIPC is the
// pooled ratio and IPCErrorEst the relative standard error of the
// (unweighted) window samples, the figure adaptive stopping drives to
// the requested bound.
func (e *estimate) finalize(res *Result) {
	if e.den > 0 {
		res.ExtrapolatedIPC = e.num / e.den
	}
	res.IPCErrorEst = relStdErr(e.ipc)
}

// converged is the adaptive-stopping predicate: sampling may stop once
// at least minWindows IPC samples exist and their relative standard
// error has reached the requested bound. maxErr == 0 (no bound) never
// stops early.
func converged(maxErr float64, winIPC []float64, minWindows int) bool {
	return maxErr > 0 && len(winIPC) >= minWindows && relStdErr(winIPC) <= maxErr
}

// relStdErr returns the relative standard error of the sample mean
// (stddev / sqrt(n) / mean), the reported confidence figure for the
// window-sampled IPC estimate. 0 with fewer than two samples or a zero
// mean.
func relStdErr(xs []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / n
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss/(n-1)) / math.Sqrt(n) / mean
}
