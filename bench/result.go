package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric the benchmark reports on every workload, the
// direction that is better and, for end-to-end metrics, the share of the
// parent's median by which it may worsen before a change is rejected.
type metricDef struct {
	name, unit, better string
	bound              float64
}

const (
	lower  = "lower"
	higher = "higher"
	// bound is every end-to-end metric's regression bound. On the 2-core
	// shared host the baseline was measured on, ten-run spreads reach
	// 10-15% (see README.md), so no tighter bound holds run to run.
	bound = 0.25
)

// endToEnd are the metrics a user of the simulator sees, reported on every
// workload by an untraced run. Each workload maps them onto its own unit
// of work: a spec result of a sweep, or a request to the fleet.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, bound},
	{"sim_mips", "MIPS", higher, bound},
	{"results_per_s", "1/s", higher, bound},
	{"result_p50_ms", "ms", lower, bound},
	{"result_p99_ms", "ms", lower, bound},
	{"rss_peak_mb", "MB", lower, bound},
}

// perLayer are the metrics of single layers, reported on every workload
// by a traced run. Layers a workload does not exercise report 0. Shares
// (_pct) are of the runner jobs' busy time on the sweeps and of the
// summed client latency on the served workload.
var perLayer = []metricDef{
	{"workloads.build_s", "s", lower, 0},
	{"core.detail_pct", "%", lower, 0},
	{"core.reset_pct", "%", lower, 0},
	{"core.warm_pct", "%", lower, 0},
	{"core.ns_per_cycle", "ns/cycle", lower, 0},
	{"core.cycles", "count", lower, 0},
	{"core.retired", "count", lower, 0},
	{"emu.ff_pct", "%", lower, 0},
	{"emu.verify_pct", "%", lower, 0},
	{"emu.ff_instr", "count", lower, 0},
	{"emu.ns_per_instr", "ns/instr", lower, 0},
	{"ckpt.restore_pct", "%", lower, 0},
	{"ckpt.restore_us", "us/blob", lower, 0},
	{"ckpt.hits", "count", higher, 0},
	{"ckpt.misses", "count", lower, 0},
	{"ckpt.bytes_read", "bytes", lower, 0},
	{"ckpt.entries", "count", lower, 0},
	{"ckpt.bytes", "bytes", lower, 0},
	{"sim.run_pct", "%", higher, 0},
	{"sim.overhead_pct", "%", lower, 0},
	{"sim.spec_ms_p50", "ms", lower, 0},
	{"sim.spec_ms_p99", "ms", lower, 0},
	{"sim.window_ms_p50", "ms/window", lower, 0},
	{"sim.profile_setup_pct", "%", lower, 0},
	{"api.encode_us", "us/result", lower, 0},
	{"api.decode_us", "us/result", lower, 0},
	{"client.self_pct", "%", lower, 0},
	{"client.retries", "count", lower, 0},
	{"fleet.hop_pct", "%", lower, 0},
	{"fleet.retries", "count", lower, 0},
	{"fleet.steals", "count", lower, 0},
	{"fleet.worker_skew", "ratio", lower, 0},
	{"server.self_pct", "%", lower, 0},
	{"server.queue_pct", "%", lower, 0},
	{"server.cache_hit_ratio", "ratio", higher, 0},
	{"server.dedup", "count", higher, 0},
	{"server.shed", "count", lower, 0},
	{"store.hits", "count", higher, 0},
	{"store.misses", "count", lower, 0},
	{"store.writes", "count", lower, 0},
	{"sim.unattributed_frac", "ratio", lower, 0},
	{"trace.overhead_frac", "ratio", lower, 0},
}

// Host identifies the machine and build a result was measured on.
// -compare refuses to pair results from different hosts; Commit must be
// uniform within each side.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

// sameMachine reports whether two stamps describe the same host setup.
func (h Host) sameMachine(o Host) bool {
	return h.NProc == o.NProc && h.GOMAXPROCS == o.GOMAXPROCS && h.GoVersion == o.GoVersion && h.CPU == o.CPU
}

func hostStamp() Host {
	h := Host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        "unknown",
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	return h
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// Result is one workload run.
type Result struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Seconds   int    `json:"seconds"`
	Scale     int    `json:"scale"`
	Traced    bool   `json:"traced"`
	Host      Host   `json:"host"`
	Started   string `json:"started"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Metrics holds the BENCHMARK.json metrics: endToEnd untraced, perLayer
	// traced. Detail holds the rest (the served hit/miss split, the
	// sampled IPC error, fail_frac, per-layer latencies).
	Metrics map[string]Metric `json:"metrics"`
	Detail  map[string]Metric `json:"detail"`
	// Samples counts what each percentile and rate was taken over.
	Samples map[string]int `json:"samples"`
	// Mismatches lists the first correctness failures, for diagnosis.
	Mismatches []string `json:"mismatches,omitempty"`
}

// fail records one failed or mismatched operation.
func (r *Result) fail(format string, args ...interface{}) {
	r.Failed++
	if len(r.Mismatches) < 20 {
		r.Mismatches = append(r.Mismatches, fmt.Sprintf(format, args...))
	}
}

type summaryLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func (r *Result) summaryLine() summaryLine {
	return summaryLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

// print writes the human-readable report: every metric with its unit.
func (r *Result) print(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, %ds, scale %d; %d attempted, %d failed)\n",
		r.Workload, mode, r.Seed, r.Seconds, r.Scale, r.Attempted, r.Failed)
	for _, set := range []map[string]Metric{r.Metrics, r.Detail} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-26s %14.6g %s\n", n, set[n].Value, set[n].Unit)
		}
	}
	if len(r.Samples) > 0 {
		b, _ := json.Marshal(r.Samples)
		fmt.Fprintf(w, "  samples %s\n", b)
	}
	for _, m := range r.Mismatches {
		fmt.Fprintf(w, "  MISMATCH %s\n", m)
	}
}

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5)
}

// pct is 100*part/whole, 0 when whole is 0.
func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

func ratio(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// samples holds the per-sample values of the end-to-end metrics: one
// sample per sweep pass, or per second of served traffic. A run reports
// each metric at the fast decile of its samples — the 90th percentile of
// throughput, the 10th of latency — because interference from other
// tenants of a shared host only ever slows a sample down, and the slow
// samples vary from run to run far more than the fast ones.
type samples struct {
	mips, perS, p50, p99 []float64
}

// add records one sample: instructions and results per second, and the
// latencies (ms) of the results it delivered.
func (s *samples) add(instrPerS, resultsPerS float64, latMS []float64) {
	s.mips = append(s.mips, instrPerS/1e6)
	s.perS = append(s.perS, resultsPerS)
	s.p50 = append(s.p50, percentile(append([]float64(nil), latMS...), 0.5))
	s.p99 = append(s.p99, percentile(append([]float64(nil), latMS...), 0.99))
}

const fastDecile = 0.9

func (s *samples) report(r *Result) {
	r.Metrics["sim_mips"] = Metric{percentile(s.mips, fastDecile), "MIPS"}
	r.Metrics["results_per_s"] = Metric{percentile(s.perS, fastDecile), "1/s"}
	r.Metrics["result_p50_ms"] = Metric{percentile(s.p50, 1-fastDecile), "ms"}
	r.Metrics["result_p99_ms"] = Metric{percentile(s.p99, 1-fastDecile), "ms"}
	r.Samples["samples"] = len(s.mips)
}
