// Command msrsim runs one workload on the out-of-order core under a chosen
// squash-reuse engine and prints the headline statistics.
//
// Usage:
//
//	msrsim -workload bfs -engine rgid -streams 4 -entries 64
//	msrsim -workload nested-mispred -engine ri -sets 64 -ways 4
//	msrsim -list
//	msrsim -asm prog.s            # run an assembly file instead
//	msrsim -workload bfs -stats-interval 4096 -stats-out bfs.ndjson
//	msrsim -workload bfs -trace-out events.log
//	msrsim -workload mcf -ff 4505 -window 287 -periods 48 -warm
//	                              # multi-fidelity: functional fast-forward
//	                              # with cache/predictor warming, sampled
//	                              # detailed windows, extrapolated IPC
//	msrsim -workload mcf -ff 4505 -window 287 -periods 48 -phase kmeans
//	                              # phase-aware sampling: one representative
//	                              # window per k-means program phase
//	msrsim -workload mcf -ff 4505 -window 287 -periods 48 -max-err 0.02
//	                              # adaptive stopping at 2% relative
//	                              # standard error
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mssr/internal/asm"
	"mssr/internal/profiles"
	"mssr/internal/sim"
	"mssr/internal/stats"
	"mssr/internal/trace"
	"mssr/internal/workloads"
)

func main() { os.Exit(run()) }

// run returns the exit code so the deferred profile writers fire on
// every path (os.Exit would skip them).
func run() int {
	var (
		list     = flag.Bool("list", false, "list available workloads and exit")
		workload = flag.String("workload", "nested-mispred", "workload name (see -list)")
		asmFile  = flag.String("asm", "", "run an assembly file instead of a named workload")
		scale    = flag.Int("scale", 1, "workload scale factor")
		engine   = flag.String("engine", "rgid", "reuse engine: none, rgid, ri, dir-value, dir-name")
		streams  = flag.Int("streams", 4, "rgid: squashed streams tracked (N)")
		entries  = flag.Int("entries", 64, "rgid: squash log entries per stream (P)")
		sets     = flag.Int("sets", 64, "ri: reuse table sets")
		ways     = flag.Int("ways", 4, "ri: reuse table ways")
		loadPol  = flag.String("loads", "verify", "reused-load policy: verify, bloom, none")
		check    = flag.Bool("check", false, "run the lockstep functional checker")
		ff       = flag.Uint64("ff", 0, "fast-forward this many instructions functionally before each detailed window (0 = full detail)")
		window   = flag.Uint64("window", 0, "detailed-window length in instructions (0 with -ff = run detailed to completion after one skip)")
		periods  = flag.Int("periods", 1, "number of {fast-forward, detailed window} sample periods")
		warm     = flag.Bool("warm", false, "warm the caches and branch predictor during fast-forward (uniform sampling only; -phase kmeans never warms)")
		phase    = flag.String("phase", "uniform", "sample-window placement: uniform, kmeans (one representative window per program phase)")
		maxErr   = flag.Float64("max-err", 0, "stop sampling once the IPC estimate's relative standard error reaches this bound (0 = run every period)")
		noCkpt   = flag.Bool("no-ckpt", false, "disable the checkpoint store: re-emulate every functional prefix")
		timeout  = flag.Duration("timeout", 0, "abort the simulation after this wall time (0 = none)")
		verbose  = flag.Bool("v", false, "print the full counter set")
		traceN   = flag.Int("trace", 0, "print a pipeline diagram of the last N instructions")
		traceOut = flag.String("trace-out", "", "stream the full pipeline event log to this file (- = stdout)")
		statsIv  = flag.Uint64("stats-interval", 0, "sample interval telemetry every N cycles (0 = off; implied 4096 by -stats-out)")
		statsWin = flag.Int("stats-window", 0, "retain at most this many intervals (0 = default)")
		statsOut = flag.String("stats-out", "", "write interval telemetry to this file: NDJSON, or CSV when the name ends in .csv (- = stdout)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *list {
		for _, w := range workloads.All() {
			fmt.Printf("%-16s %-9s %s\n", w.Name, w.Suite, w.Description)
		}
		return 0
	}

	stopProfiles, err := profiles.Start(*cpuProf, *memProf)
	if err != nil {
		return fatal(err)
	}
	defer stopProfiles()

	eng, err := sim.ParseEngine(*engine)
	if err != nil {
		return fatal(err)
	}
	lp, err := sim.ParseLoadPolicy(*loadPol)
	if err != nil {
		return fatal(err)
	}
	pm, err := sim.ParsePhaseMode(*phase)
	if err != nil {
		return fatal(err)
	}
	spec := sim.Spec{
		Workload: *workload,
		Scale:    *scale,
		Engine:   eng,
		Streams:  *streams,
		Entries:  *entries,
		Sets:     *sets,
		Ways:     *ways,
		Loads:    lp,
		Check:    *check,
		Timeout:  *timeout,
		// Cross-check the final state against the functional emulator.
		VerifyArch: true,

		FastForward:    *ff,
		DetailedWindow: *window,
		SamplePeriods:  *periods,
		Warm:           *warm,
		PhaseSelect:    pm,
		MaxErr:         *maxErr,
		NoCheckpoint:   *noCkpt,
	}
	if *asmFile != "" {
		src, err := os.ReadFile(*asmFile)
		if err != nil {
			return fatal(err)
		}
		prog, err := asm.Assemble(*asmFile, string(src))
		if err != nil {
			return fatal(err)
		}
		spec.Workload = ""
		spec.Program = prog
	}
	if *statsOut != "" && *statsIv == 0 {
		*statsIv = 4096
	}
	spec.SampleInterval = *statsIv
	spec.SampleWindow = *statsWin

	var tracers trace.Multi
	var pipe *trace.Pipeline
	if *traceN > 0 {
		pipe = trace.NewPipeline(*traceN)
		tracers = append(tracers, pipe)
	}
	if *traceOut != "" {
		w, closeTrace, err := openOut(*traceOut)
		if err != nil {
			return fatal(err)
		}
		defer func() {
			if err := closeTrace(); err != nil {
				fmt.Fprintln(os.Stderr, "msrsim: closing trace log:", err)
			}
		}()
		tracers = append(tracers, &trace.Writer{W: w})
	}
	if len(tracers) > 0 {
		spec.Tracer = tracers
	}

	res, err := sim.Run(context.Background(), spec)
	if err != nil {
		return fatal(err)
	}
	st := res.Stats
	fmt.Printf("%s on %s (%s)\n", res.Program, spec.Engine, res.EngineName)
	fmt.Printf("  %s (%.1fms wall, %.2f MIPS)\n", st, float64(res.Wall)/float64(time.Millisecond), res.MIPS)
	if res.FastForwarded > 0 || res.Extrapolated {
		fmt.Printf("  multi-fidelity: %d detailed windows, %d retired in detail, %d fast-forwarded, %d total\n",
			res.Windows, st.Retired, res.FastForwarded, res.TotalRetired)
		if res.ExtrapolatedIPC > 0 {
			fmt.Printf("  extrapolated IPC %.4f (relative standard error %.2f%%)\n",
				res.ExtrapolatedIPC, 100*res.IPCErrorEst)
		}
		if res.CkptHits > 0 || res.CkptMisses > 0 {
			fmt.Printf("  checkpoints: %d restored, %d missed, %d functional instructions executed\n",
				res.CkptHits, res.CkptMisses, res.FFExecuted)
		}
	}
	if *statsOut != "" {
		if err := writeIntervals(*statsOut, res); err != nil {
			return fatal(err)
		}
		fmt.Printf("  %d intervals (%d dropped) -> %s\n", len(res.Intervals), res.IntervalsDropped, *statsOut)
	}
	if *verbose {
		printVerbose(st)
	}
	if pipe != nil {
		fmt.Printf("pipeline diagram (last %d instructions):\n%s", *traceN, pipe.Render(*traceN))
	}
	if res.Extrapolated {
		// Sampled mode has no end-of-program core state to cross-check;
		// the recorded final state is the emulator's.
		fmt.Println("  final architectural state recorded from the functional emulator (sampled mode)")
	} else {
		fmt.Println("  architectural state verified against the functional emulator")
	}
	return 0
}

func printVerbose(st *stats.Stats) {
	fmt.Printf("  fetched=%d flushes=%d branches=%d mispredicts=%d (%.2f%%) jumps-mispredicted=%d MPKI=%.2f\n",
		st.Fetched, st.Flushes, st.Branches, st.BranchMispredicts, 100*st.MispredictRate(), st.JumpMispredicts, st.MPKI())
	fmt.Printf("  streams=%d reconvergences=%d (simple=%d sw=%d hw=%d) timeouts=%d divergences=%d\n",
		st.SquashedStreams, st.Reconvergences,
		st.ReconvByType[stats.ReconvSimple], st.ReconvByType[stats.ReconvSoftware], st.ReconvByType[stats.ReconvHardware],
		st.StreamTimeouts, st.Divergences)
	fmt.Printf("  reuse: tests=%d hits=%d loads=%d failRGID=%d failNotDone=%d failKind=%d bloomRejects=%d\n",
		st.ReuseTests, st.ReuseHits, st.ReusedLoads, st.ReuseFailRGID, st.ReuseFailNotDone, st.ReuseFailKind, st.BloomFilterRejects)
	fmt.Printf("  memory: verifications=%d violations=%d  rgidResets=%d  riHits=%d riInvalidates=%d\n",
		st.LoadVerifications, st.MemOrderViolations, st.RGIDResets, st.RIHits, st.RIInvalidates)
	fmt.Printf("  distance histogram: %v\n", st.ReconvDistance)
}

// openOut opens path for buffered writing; "-" means stdout. The
// returned close function flushes the buffer.
func openOut(path string) (io.Writer, func() error, error) {
	if path == "-" {
		bw := bufio.NewWriter(os.Stdout)
		return bw, bw.Flush, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	bw := bufio.NewWriter(f)
	return bw, func() error {
		if err := bw.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

// writeIntervals writes the run's interval telemetry to path through
// sim.IntervalStream, the keyed writer of msrbench -stats-out: CSV when
// the name ends in .csv, NDJSON otherwise.
func writeIntervals(path string, res sim.Result) error {
	w, closeOut, err := openOut(path)
	if err != nil {
		return err
	}
	ivs := sim.NewIntervalStream(w)
	if strings.HasSuffix(path, ".csv") {
		ivs = sim.NewIntervalCSVStream(w)
	}
	ivs.OnFinish(0, 1, res)
	err = ivs.Err()
	if cerr := closeOut(); err == nil {
		err = cerr
	}
	return err
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "msrsim:", err)
	return 1
}
