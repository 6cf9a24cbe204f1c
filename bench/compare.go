package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// runFile is what -out writes: one result per workload.
type runFile struct {
	Results []*Result `json:"results"`
}

// runAll runs every workload in its own child process, so each one's
// peak RSS is its own, prints their reports and writes the results.
func runAll(o options) error {
	if o.out == "" {
		return errors.New("give -workload NAME for one workload, or -out FILE for all of them")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	var rf runFile
	var failed []string
	for _, w := range allWorkloads {
		tmp := filepath.Join(o.workdir, "result-"+w.name+".json")
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace),
			"-workdir", o.workdir, "-result", tmp}
		if o.smoke {
			args = append(args, "-smoke")
		}
		if o.spans != "" {
			args = append(args, "-spans", o.spans+"."+w.name)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		runErr := cmd.Run()
		b, err := os.ReadFile(tmp)
		_ = os.Remove(tmp)
		if err != nil {
			return fmt.Errorf("%s: no result (%v): %w", w.name, runErr, err)
		}
		var r Result
		if err := json.Unmarshal(b, &r); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if runErr != nil || !r.Correct {
			failed = append(failed, w.name)
		}
		rf.Results = append(rf.Results, &r)
	}
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed or incorrect: %v", failed)
	}
	return nil
}

// runCompare compares two sets of -out result files, "A... -- B...",
// run in alternating pairs (A1 B1 A2 B2 ...) on one host: A is the
// parent, B the change. For every workload and end-to-end metric it
// prints each side's median and quartiles, how many pairs B won, and a
// verdict:
//
//   - better: over at least minPairs pairs, B won 9 in 10 (ties count for
//     neither) and the medians differ by more than A's interquartile
//     range, or every B run beats every A run;
//   - unresolved: A's own spread exceeds the bound, so the bound cannot
//     tell;
//   - worse: B's median is worse than A's by more than the bound;
//   - same: none of these.
func runCompare(w io.Writer, args []string) error {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
		}
	}
	if split < 1 || split == len(args)-1 {
		return errors.New("usage: -compare A1.json A2.json ... -- B1.json B2.json ...")
	}
	a, err := loadSide(args[:split])
	if err != nil {
		return err
	}
	b, err := loadSide(args[split+1:])
	if err != nil {
		return err
	}
	if len(a) != len(b) {
		return fmt.Errorf("alternating pairs need equal sides: %d vs %d files", len(a), len(b))
	}
	if !a[0].Results[0].Host.sameMachine(b[0].Results[0].Host) {
		return fmt.Errorf("host stamps differ: %+v vs %+v", a[0].Results[0].Host, b[0].Results[0].Host)
	}
	fmt.Fprintf(w, "A = %s, B = %s, %d pairs\n", a[0].Results[0].Host.Commit, b[0].Results[0].Host.Commit, len(a))
	fmt.Fprintf(w, "%-16s %-14s %24s %24s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins", "verdict")
	for _, wl := range allWorkloads {
		for _, d := range endToEnd {
			av, bv, err := pairValues(a, b, wl.name, d.name)
			if err != nil {
				return err
			}
			c := comparePairs(av, bv, d)
			fmt.Fprintf(w, "%-16s %-14s %24s %24s %3d/%-2d  %s\n", wl.name, d.name,
				quartiles(av), quartiles(bv), c.wins, len(av), c.verdict)
		}
	}
	return nil
}

// loadSide reads one side's result files and checks that they come from
// one host and one commit.
func loadSide(paths []string) ([]runFile, error) {
	var side []runFile
	var first *Host
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf runFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range rf.Results {
			if first == nil {
				first = &r.Host
			}
			if !r.Host.sameMachine(*first) {
				return nil, fmt.Errorf("%s: host stamp %+v differs from %+v", p, r.Host, *first)
			}
			if r.Host.Commit != first.Commit {
				return nil, fmt.Errorf("%s: commit %s mixed with %s on one side", p, r.Host.Commit, first.Commit)
			}
			if r.Traced {
				return nil, fmt.Errorf("%s: %s is a traced run; compare untraced runs", p, r.Workload)
			}
		}
		if len(rf.Results) == 0 {
			return nil, fmt.Errorf("%s: no results", p)
		}
		side = append(side, rf)
	}
	return side, nil
}

func pairValues(a, b []runFile, workload, metric string) (av, bv []float64, err error) {
	get := func(rf runFile) (float64, error) {
		for _, r := range rf.Results {
			if r.Workload == workload {
				if m, ok := r.Metrics[metric]; ok {
					return m.Value, nil
				}
			}
		}
		return 0, fmt.Errorf("a result file lacks %s on %s", metric, workload)
	}
	for i := range a {
		x, err := get(a[i])
		if err != nil {
			return nil, nil, err
		}
		y, err := get(b[i])
		if err != nil {
			return nil, nil, err
		}
		av, bv = append(av, x), append(bv, y)
	}
	return av, bv, nil
}

// minPairs is the fewest pairs a gain can be claimed on.
const minPairs = 10

type comparison struct {
	wins    int
	verdict string
}

func comparePairs(av, bv []float64, d metricDef) comparison {
	// gain > 0 when y is better than x.
	gain := func(x, y float64) float64 {
		if d.better == higher {
			return y - x
		}
		return x - y
	}
	var c comparison
	for i := range av {
		if gain(av[i], bv[i]) > 0 {
			c.wins++
		}
	}
	am, bm := median(av), median(bv)
	aq := append([]float64(nil), av...)
	iqr := percentile(aq, 0.75) - percentile(aq, 0.25)
	allBetter := true
	for _, x := range av {
		for _, y := range bv {
			allBetter = allBetter && gain(x, y) > 0
		}
	}
	switch {
	case len(av) >= minPairs && allBetter:
		c.verdict = "better"
	case am != 0 && iqr/abs(am) > d.bound:
		c.verdict = "unresolved (A's spread exceeds the bound)"
	case len(av) >= minPairs && float64(c.wins) >= 0.9*float64(len(av)) && gain(am, bm) > iqr:
		c.verdict = "better"
	case -gain(am, bm) > d.bound*abs(am):
		c.verdict = "worse"
	default:
		c.verdict = "same"
	}
	return c
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func quartiles(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(s), percentile(s, 0.25), percentile(s, 0.75))
}
