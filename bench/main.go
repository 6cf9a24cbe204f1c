// Command bench is the repository's outside-in benchmark. It times only
// calls into the simulator's public packages — the sim.Runner sweeps, the
// core/emu/ckpt mechanisms and a loopback msrd fleet — and checks every
// output against committed golden values.
//
// One workload per process (the form the BENCHMARK.json command uses):
//
//	bash bench/run.sh --workload grid-detail --seed 1 --seconds 20 --trace 0
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics untraced (--trace 0), the per-layer
// split traced (--trace 1).
//
// Every workload, each in its own child process, with a result file:
//
//	bash bench/run.sh -seed 1 -out bench/runs/a1.json [-trace 1]
//
// Paired comparison of two sets of result files:
//
//	bash bench/run.sh -compare A1.json A2.json ... -- B1.json B2.json ...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// defaultSeconds is the measured phase length of one workload run; it
// matches run_seconds in BENCHMARK.json.
const defaultSeconds = 20

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	smoke    bool
	scale    int // the sweeps' workload scale, set per workload
	out      string
	spans    string
	workdir  string
	result   string
}

func main() {
	// The load is sized for a 2-core host: two runner jobs, two clients,
	// two fleet workers. Pinning GOMAXPROCS keeps that true on bigger
	// hosts, so results stay comparable.
	runtime.GOMAXPROCS(2)

	var o options
	var compare, updateGolden bool
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process: "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&o.seed, "seed", 1, "seed for submission order and the served request mix")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "length of the measured phase of each workload")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run reporting the per-layer split")
	flag.BoolVar(&o.smoke, "smoke", false, "run the sweeps at the tiny scale 0 (for tests)")
	flag.StringVar(&o.out, "out", "", "run every workload (one child process each) and write the results to FILE")
	flag.StringVar(&o.spans, "spans", "", "traced runs: write the recorded spans as NDJSON to FILE")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "working directory for the served stores (created, emptied after use)")
	flag.StringVar(&o.result, "result", "", "with -workload: also write the full result as JSON to FILE")
	flag.BoolVar(&compare, "compare", false, "compare result files: -compare A... -- B...")
	flag.BoolVar(&updateGolden, "update-golden", false, "regenerate golden.json (path from -out, default bench/golden.json)")
	flag.Parse()

	var err error
	switch {
	case compare:
		err = runCompare(os.Stdout, flag.Args())
	case updateGolden:
		path := o.out
		if path == "" {
			path = "bench/golden.json"
		}
		err = writeGolden(path)
	case o.workload != "":
		err = runWorkloadMain(o)
	default:
		err = runAll(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// setups is how many times a run sets up; setup_s is the median.
func (o options) setups() int {
	if o.smoke {
		return 1
	}
	return setupReps
}

// runWorkloadMain runs one workload in this process, prints its report
// and, last, the summary line. A correctness failure exits non-zero after
// the line is printed, so the numbers stay inspectable.
func runWorkloadMain(o options) error {
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames())
	}
	g, err := loadGolden()
	if err != nil {
		return err
	}
	res, err := runWorkload(w, o, g)
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	if o.result != "" {
		b, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.result, b, 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res.summaryLine())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed or mismatched", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// runWorkload measures one workload with the shared bookkeeping every
// workload gets: the host stamp, resident memory and the fail count.
func runWorkload(w workload, o options, g *golden) (*Result, error) {
	o.scale = w.scale
	if o.smoke {
		o.scale = 0
	}
	r := &Result{
		Workload: w.name,
		Seed:     o.seed,
		Seconds:  o.seconds,
		Scale:    o.scale,
		Traced:   o.trace == 1,
		Host:     hostStamp(),
		Started:  time.Now().UTC().Format(time.RFC3339),
		Metrics:  map[string]Metric{},
		Detail:   map[string]Metric{},
		Samples:  map[string]int{},
	}
	var tr *tracer
	if r.Traced {
		tr = newTracer()
	}
	if err := w.run(o, g, r, tr); err != nil {
		return nil, err
	}
	if r.Attempted < 1 {
		return nil, fmt.Errorf("%s attempted no operations", w.name)
	}
	r.Correct = r.Failed == 0
	r.Detail["fail_frac"] = Metric{float64(r.Failed) / float64(r.Attempted), "failed/attempted"}
	if !r.Traced {
		r.Metrics["rss_peak_mb"] = Metric{peakRSSMB(), "MB"}
	}
	if tr != nil && o.spans != "" {
		if err := tr.writeNDJSON(o.spans); err != nil {
			return nil, err
		}
	}
	return r, nil
}
