package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"mssr/internal/obs"
	"mssr/internal/sim"
	"mssr/internal/stats"
	"mssr/internal/workloads"
)

// DefaultPhaseInterval is the sampling interval the phases experiment
// uses when msrbench's -stats-interval knob is unset.
const DefaultPhaseInterval = 4096

// The sampling knob attaches interval telemetry to every spec the
// experiment helpers build, so any sweep — table1, fig10, phases — can
// emit an interval stream through msrbench's -stats-out observer.
// Sampling parameters are part of a spec's canonical key, so sampled
// and unsampled sweeps address distinct daemon cache entries.
var (
	samplingMu       sync.Mutex
	samplingInterval uint64
)

// SetSampling attaches interval telemetry (every `interval` cycles) to
// all specs subsequent experiments build; 0 turns sampling back off.
func SetSampling(interval uint64) {
	samplingMu.Lock()
	defer samplingMu.Unlock()
	samplingInterval = interval
}

func currentSampling() uint64 {
	samplingMu.Lock()
	defer samplingMu.Unlock()
	return samplingInterval
}

// sampled applies the package sampling knob to a freshly built spec.
func sampled(s sim.Spec) sim.Spec {
	s.SampleInterval = currentSampling()
	return s
}

// PhaseWorkload is one workload's interval-telemetry stream.
type PhaseWorkload struct {
	Name      string
	Suite     string
	Intervals []obs.Interval
	// Dropped counts early intervals the sampler ring overwrote; when
	// non-zero the stream starts mid-run.
	Dropped int
}

// quarterRates aggregates one contiguous run quarter: IPC and reuse rate
// computed over the quarter's summed deltas (not averaged per-interval
// rates, which would weight short trailing intervals equally).
func quarterRates(ivs []obs.Interval) (ipc, reuse float64) {
	var sum [len(stats.IntervalCounters)]uint64
	var cycles uint64
	for i := range ivs {
		for j, v := range ivs[i].Counters {
			sum[j] += v
		}
		cycles += ivs[i].Cycles()
	}
	ipc, reuse, _, _ = stats.IntervalRates(&sum, cycles)
	return ipc, reuse
}

// Quarter returns the aggregate IPC and reuse rate of run quarter q
// (0..3), splitting the retained intervals into four contiguous chunks.
func (w *PhaseWorkload) Quarter(q int) (ipc, reuse float64) {
	n := len(w.Intervals)
	return quarterRates(w.Intervals[q*n/4 : (q+1)*n/4])
}

// ReuseRamp is the reuse-rate change from the first to the last run
// quarter — positive when reuse coverage ramps up as the reuse
// structures warm.
func (w *PhaseWorkload) ReuseRamp() float64 {
	_, first := w.Quarter(0)
	_, last := w.Quarter(3)
	return last - first
}

// PhasesResult is the phase-behaviour experiment: per-interval telemetry
// for every SPEC-like workload under the paper's rgid-4x64
// configuration, exposing the warmup and reuse-rate ramp that the
// whole-run aggregates of Table 1 and Figure 10 hide.
type PhasesResult struct {
	Scale int
	// Interval is the sampling period in cycles.
	Interval  uint64
	Workloads []PhaseWorkload
}

// Phases runs the spec2006+spec2017 workloads at rgid-4x64 with interval
// sampling attached and collects each run's telemetry stream. The
// sampling period is msrbench's -stats-interval when set (SetSampling),
// DefaultPhaseInterval otherwise.
func Phases(scale int) (*PhasesResult, error) {
	every := currentSampling()
	if every == 0 {
		every = DefaultPhaseInterval
	}
	var specs []sim.Spec
	for _, suite := range []string{"spec2006", "spec2017"} {
		for _, w := range workloads.Suite(suite) {
			s := rgidSpec(w.Name, w.Name, scale, 4, 64)
			s.SampleInterval = every
			specs = append(specs, s)
		}
	}
	// runSpecs would discard the interval streams (it keeps only stats),
	// so run through the backend directly.
	res, err := currentRunner().Run(context.Background(), specs)
	if err != nil {
		return nil, err
	}
	r := &PhasesResult{Scale: scale, Interval: every}
	for i := range res {
		if res[i].Err != nil {
			return nil, fmt.Errorf("phases: %s: %w", res[i].Key, res[i].Err)
		}
		wl, err := workloads.ByName(res[i].Key)
		if err != nil {
			return nil, err
		}
		r.Workloads = append(r.Workloads, PhaseWorkload{
			Name:      wl.Name,
			Suite:     wl.Suite,
			Intervals: res[i].Intervals,
			Dropped:   res[i].IntervalsDropped,
		})
	}
	return r, nil
}

// Render prints the phase-behaviour table: per-quarter IPC and reuse
// rate for every workload, plus the first-to-last-quarter reuse ramp.
func (r *PhasesResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Phase behaviour (scale %d, rgid-4x64, %d-cycle intervals; per-quarter aggregates)\n",
		r.Scale, r.Interval)
	fmt.Fprintf(&sb, "%-12s%-10s%5s  %s  %s%8s\n",
		"workload", "suite", "ivs",
		"ipc     q1    q2    q3    q4",
		"reuse%   q1    q2    q3    q4", "ramp")
	for i := range r.Workloads {
		w := &r.Workloads[i]
		fmt.Fprintf(&sb, "%-12s%-10s%5d  ", w.Name, w.Suite, len(w.Intervals))
		for q := 0; q < 4; q++ {
			ipc, _ := w.Quarter(q)
			fmt.Fprintf(&sb, "%6.2f", ipc)
		}
		sb.WriteString("    ")
		for q := 0; q < 4; q++ {
			_, reuse := w.Quarter(q)
			fmt.Fprintf(&sb, "%6.1f", 100*reuse)
		}
		fmt.Fprintf(&sb, "%+8.1f", 100*w.ReuseRamp())
		if w.Dropped > 0 {
			fmt.Fprintf(&sb, "  (%d early intervals dropped)", w.Dropped)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
