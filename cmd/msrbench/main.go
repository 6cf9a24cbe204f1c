// Command msrbench regenerates the paper's tables and figures.
//
// Usage:
//
//	msrbench                      # run everything at standard scale
//	msrbench -exp table1,fig10    # run a subset
//	msrbench -scale 2             # larger workloads
//	msrbench -jobs 4 -progress    # cap parallelism, report per-run progress
//	msrbench -json results.jsonl  # machine-readable per-run result stream
//	msrbench -remote :8371        # submit every sweep to an msrd daemon;
//	                              # repeated regenerations are served from
//	                              # its content-addressed result cache
//	msrbench -remote :8370        # the same flag pointed at an msrfleet
//	                              # coordinator shards the sweeps across
//	                              # the whole worker ring transparently
//	msrbench -batch=false         # disable lockstep batch grouping of
//	                              # same-workload specs within a sweep
//	msrbench -exp phases -stats-interval 4096 -stats-out phases.ndjson
//	                              # phase-behaviour table plus the raw
//	                              # per-interval telemetry stream (CSV when
//	                              # the file name ends in .csv)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"mssr/internal/client"
	"mssr/internal/experiments"
	"mssr/internal/profiles"
	"mssr/internal/sim"
)

func main() { os.Exit(run()) }

// run is the real main; returning an exit code (instead of calling
// os.Exit inline) lets the deferred profile writers run on every path.
func run() int {
	var (
		exps     = flag.String("exp", "all", "comma-separated experiments: table1,table2,table3,table4,fig3,fig4,fig10,fig11,fig12,baselines,phases or all")
		scale    = flag.Int("scale", 1, "workload scale factor")
		asCSV    = flag.Bool("csv", false, "emit table1/fig10 in the artifact rollup CSV format (CFG,BM,CYCLES,diff)")
		jobs     = flag.Int("jobs", runtime.NumCPU(), "max concurrently running simulations")
		progress = flag.Bool("progress", false, "report per-simulation progress on stderr")
		jsonOut  = flag.String("json", "", `append one JSON object per simulation to this file ("-" = stdout)`)
		timeout  = flag.Duration("timeout", 0, "per-simulation wall-time limit (0 = none)")
		remote   = flag.String("remote", "", "msrd daemon or msrfleet coordinator address; sweeps are submitted there instead of simulating locally")
		batch    = flag.Bool("batch", true, "group a sweep's same-workload specs into lockstep batch runs over a shared instruction stream (in-process runs; for -remote see msrd -batch)")
		statsIv  = flag.Uint64("stats-interval", 0, "attach interval telemetry to every sweep, sampled every N cycles (0 = off; implied 4096 by -stats-out)")
		statsOut = flag.String("stats-out", "", `write the per-interval telemetry of every run to this file: NDJSON, or CSV when the name ends in .csv ("-" = stdout)`)
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProfiles, err := profiles.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "msrbench:", err)
		return 1
	}
	defer stopProfiles()

	var obs []sim.Observer
	if *progress {
		obs = append(obs, sim.NewProgress(os.Stderr))
	}
	var js *sim.JSONStream
	if *jsonOut != "" {
		w, closeJSON, err := openOut(*jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "msrbench:", err)
			return 1
		}
		defer closeJSON()
		js = sim.NewJSONStream(w)
		obs = append(obs, js)
	}
	if *statsOut != "" && *statsIv == 0 {
		*statsIv = 4096
	}
	experiments.SetSampling(*statsIv)
	var ivs *sim.IntervalStream
	if *statsOut != "" {
		w, closeStats, err := openOut(*statsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "msrbench:", err)
			return 1
		}
		defer closeStats()
		if strings.HasSuffix(*statsOut, ".csv") {
			ivs = sim.NewIntervalCSVStream(w)
		} else {
			ivs = sim.NewIntervalStream(w)
		}
		obs = append(obs, ivs)
	}
	if *remote != "" {
		experiments.SetRunner(&client.Remote{
			Client:   client.New(*remote),
			Observer: sim.Observers(obs...),
		})
	} else {
		experiments.SetRunner(&sim.Runner{
			Jobs:     *jobs,
			Timeout:  *timeout,
			Observer: sim.Observers(obs...),
			Batching: *batch,
		})
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		want[strings.TrimSpace(e)] = true
	}

	type experiment struct {
		name string
		run  func() (string, error)
	}
	list := []experiment{
		{"table1", func() (string, error) {
			r, err := experiments.Table1(*scale)
			if err != nil {
				return "", err
			}
			if *asCSV {
				return r.CSV(), nil
			}
			return r.Render(), nil
		}},
		{"table2", func() (string, error) { return experiments.Table2(), nil }},
		{"table3", func() (string, error) { return experiments.Table3(), nil }},
		{"table4", func() (string, error) { return experiments.Table4(), nil }},
		{"fig3", func() (string, error) { r, err := experiments.Figure3(*scale); return render(r, err) }},
		{"fig4", func() (string, error) { r, err := experiments.Figure4(*scale); return render(r, err) }},
		{"fig10", func() (string, error) {
			r, err := experiments.Figure10(*scale)
			if err != nil {
				return "", err
			}
			if *asCSV {
				return r.CSV(), nil
			}
			return r.Render(), nil
		}},
		{"fig11", func() (string, error) { r, err := experiments.Figure11(*scale); return render(r, err) }},
		{"fig12", func() (string, error) { r, err := experiments.Figure12(*scale); return render(r, err) }},
		{"baselines", func() (string, error) { r, err := experiments.Baselines(*scale); return render(r, err) }},
		{"phases", func() (string, error) { r, err := experiments.Phases(*scale); return render(r, err) }},
	}

	ran := 0
	for _, e := range list {
		if !want["all"] && !want[e.name] {
			continue
		}
		ran++
		start := time.Now()
		out, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "msrbench: %s: %v\n", e.name, err)
			return 1
		}
		// Wall time goes to stderr so stdout is byte-stable across runs
		// and hosts: bench_output_tables.txt is its golden.
		fmt.Fprintf(os.Stderr, "msrbench: %s took %.1fs\n", e.name, time.Since(start).Seconds())
		fmt.Printf("==== %s ====\n%s\n", e.name, out)
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "msrbench: no experiment selected by -exp %q\n", *exps)
		return 1
	}
	// A truncated -json or -stats-out stream must not masquerade as a
	// complete one.
	if js != nil {
		if err := js.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "msrbench: result stream incomplete: %v\n", err)
			return 1
		}
	}
	if ivs != nil {
		if err := ivs.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "msrbench: interval stream incomplete: %v\n", err)
			return 1
		}
	}
	return 0
}

// openOut opens path for writing; "-" means stdout (whose close is a
// no-op).
func openOut(path string) (io.Writer, func() error, error) {
	if path == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

type renderer interface{ Render() string }

func render(r renderer, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}
