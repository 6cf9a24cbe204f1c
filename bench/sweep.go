package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"sync"
	"time"

	"mssr/internal/api"
	"mssr/internal/ckpt"
	"mssr/internal/core"
	"mssr/internal/emu"
	"mssr/internal/isa"
	"mssr/internal/sim"
	"mssr/internal/stats"
	"mssr/internal/workloads"
)

const (
	kindGrid    = "grid"
	kindUniform = "uniform"
	kindKMeans  = "kmeans"
	// fullRefConfig is the grid configuration whose full-detail IPC is the
	// reference for the sampled estimates (the sampled specs use it too).
	fullRefConfig = "rgid-4x64"
	// sweepJobs is the runner parallelism: one job per core of the 2-core
	// reference host.
	sweepJobs = 2
	// setupReps is how many times a full run sets up.
	setupReps = 5
	// samplePeriods is the sampled geometry of BENCH_PR8.json and
	// BENCH_PR10.json: 48 periods, each window 1/800 of the program.
	samplePeriods = 48
)

// gridConfigs are the twelve engine configurations of the paper's figure
// sweep (the same set internal/experiments' batched grid and
// internal/core's equivalence tests use).
var gridConfigs = []struct {
	name string
	set  func(*sim.Spec)
}{
	{"none", func(s *sim.Spec) {}},
	{"rgid-1x64", func(s *sim.Spec) { s.Engine, s.Streams, s.Entries = sim.EngineRGID, 1, 64 }},
	{"rgid-2x64", func(s *sim.Spec) { s.Engine, s.Streams, s.Entries = sim.EngineRGID, 2, 64 }},
	{"rgid-4x64", func(s *sim.Spec) { s.Engine, s.Streams, s.Entries = sim.EngineRGID, 4, 64 }},
	{"rgid-4x16", func(s *sim.Spec) { s.Engine, s.Streams, s.Entries = sim.EngineRGID, 4, 16 }},
	{"rgid-bloom", func(s *sim.Spec) {
		s.Engine, s.Streams, s.Entries, s.Loads = sim.EngineRGID, 4, 64, sim.LoadBloom
	}},
	{"rgid-noload", func(s *sim.Spec) {
		s.Engine, s.Streams, s.Entries, s.Loads = sim.EngineRGID, 4, 64, sim.LoadNoReuse
	}},
	{"rgid-tiny", func(s *sim.Spec) {
		s.Engine, s.Streams, s.Entries = sim.EngineRGID, 4, 64
		s.Tune = func(c *core.Config) { c.RGIDBits = 3 }
		s.TuneKey = "rgid3"
	}},
	{"ri-64x4", func(s *sim.Spec) { s.Engine, s.Sets, s.Ways = sim.EngineRI, 64, 4 }},
	{"ri-64x1", func(s *sim.Spec) { s.Engine, s.Sets, s.Ways = sim.EngineRI, 64, 1 }},
	{"dir-value", func(s *sim.Spec) { s.Engine, s.Sets, s.Ways = sim.EngineDIRValue, 64, 4 }},
	{"dir-name", func(s *sim.Spec) { s.Engine, s.Sets, s.Ways = sim.EngineDIRName, 64, 4 }},
}

// specPrograms are the eleven SPEC-like workloads every sweep runs.
func specPrograms() []string {
	var names []string
	for _, suite := range []string{"spec2006", "spec2017"} {
		for _, w := range workloads.Suite(suite) {
			names = append(names, w.Name)
		}
	}
	return names
}

// program is one built workload. twin is a second, separately built copy
// of the same program: the runner batches specs by program identity, so
// the grid splits each program's twelve configurations into two lockstep
// groups, one per copy, that the two runner jobs execute side by side.
type program struct {
	name string
	prog *isa.Program
	twin *isa.Program
	n    uint64 // dynamic instruction count
}

// buildPrograms builds the SPEC-like programs (copies = 1 or 2) and
// returns the build time alone; the dynamic lengths that size the
// sampled geometry come from the functional emulator afterwards.
func buildPrograms(scale, copies int) ([]program, time.Duration, error) {
	var progs []program
	var build time.Duration
	for _, name := range specPrograms() {
		t := time.Now()
		p := program{name: name}
		var err error
		if p.prog, err = workloads.Build(name, scale); err == nil && copies > 1 {
			p.twin, err = workloads.Build(name, scale)
		}
		build += time.Since(t)
		if err != nil {
			return nil, 0, fmt.Errorf("build %s: %w", name, err)
		}
		end, err := emu.RunProgram(p.prog, 1<<40)
		if err != nil {
			return nil, 0, fmt.Errorf("emulate %s: %w", name, err)
		}
		p.n = end.Retired
		progs = append(progs, p)
	}
	return progs, build, nil
}

// passSpecs lists one pass's specs in submission order with the golden
// key of each.
type passSpecs struct {
	specs   []sim.Spec
	keys    []string
	program []string
	config  []string
}

// add appends a spec; pass fills in the golden keys.
func (ps *passSpecs) add(s sim.Spec, program, config string) {
	ps.specs = append(ps.specs, s)
	ps.program = append(ps.program, program)
	ps.config = append(ps.config, config)
	ps.keys = append(ps.keys, "")
}

// gridPass builds the grid's specs for the programs in order: per
// program, the even-indexed configurations on prog and the odd-indexed
// ones on twin, adjacent so both jobs work on one program at a time and
// no job idles behind a long program at the end of a pass.
func gridPass(progs []program, order []int) passSpecs {
	var ps passSpecs
	for _, i := range order {
		p := progs[i]
		for half := 0; half < 2; half++ {
			prog := p.prog
			if half == 1 && p.twin != nil {
				prog = p.twin
			}
			for ci := half; ci < len(gridConfigs); ci += 2 {
				c := gridConfigs[ci]
				s := sim.Spec{Label: p.name + "/" + c.name, Program: prog, VerifyArch: true}
				c.set(&s)
				ps.add(s, p.name, c.name)
			}
		}
	}
	return ps
}

// sampledSpec is the BENCH_PR8.json geometry for a program of n
// instructions: samplePeriods periods, each a functional skip plus a
// detailed window of n/800 instructions (at least 256).
func sampledSpec(p program, kind string) sim.Spec {
	dw := p.n / 800
	if dw < 256 {
		dw = 256
	}
	ff := uint64(1)
	if per := p.n / samplePeriods; per > dw {
		ff = per - dw
	}
	s := sim.Spec{Label: p.name, Program: p.prog, Engine: sim.EngineRGID, Streams: 4, Entries: 64,
		FastForward: ff, DetailedWindow: dw, SamplePeriods: samplePeriods}
	if kind == kindUniform {
		// Warmed skips, checkpoints off: every period re-emulates its skip.
		s.Warm, s.NoCheckpoint = true, true
	} else {
		// Cold skips and k-means window placement over the checkpoint store.
		s.PhaseSelect = sim.PhaseKMeans
	}
	return s
}

func sampledSpecs(progs []program, kind string) []sim.Spec {
	specs := make([]sim.Spec, len(progs))
	for i, p := range progs {
		specs[i] = sampledSpec(p, kind)
	}
	return specs
}

func sampledRunner(kind string) *sim.Runner {
	r := &sim.Runner{Jobs: sweepJobs}
	if kind == kindKMeans {
		r.Checkpoints = ckpt.NewMemory(-1)
	}
	return r
}

// sweep is one set-up sweep workload: built programs and a warm runner.
type sweep struct {
	kind    string
	scale   int
	progs   []program
	runner  *sim.Runner
	build   time.Duration // program build time
	profile time.Duration // the phased-cold profiling pass (kmeans only)
}

// setupSweep builds the programs and warms the runner: a warm-up group
// for the grid's core pool, one unmeasured pass for the uniform sampler,
// and the cold profiling pass that fills the checkpoint store for the
// phase-selected sampler.
func setupSweep(ctx context.Context, kind string, scale int) (*sweep, error) {
	copies := 1
	if kind == kindGrid {
		copies = 2
	}
	progs, build, err := buildPrograms(scale, copies)
	if err != nil {
		return nil, err
	}
	sw := &sweep{kind: kind, scale: scale, progs: progs, build: build}
	switch kind {
	case kindGrid:
		// One program's group fills the core pool with every configuration.
		sw.runner = &sim.Runner{Jobs: sweepJobs, Batching: true}
		if _, err := sw.runner.Run(ctx, gridPass(progs, []int{0}).specs); err != nil {
			return nil, fmt.Errorf("grid warm-up: %w", err)
		}
	default:
		sw.runner = sampledRunner(kind)
		t := time.Now()
		if _, err := sw.runner.Run(ctx, sampledSpecs(progs, kind)); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", kind, err)
		}
		if kind == kindKMeans {
			sw.profile = time.Since(t)
		}
	}
	return sw, nil
}

// setupRepeated sets up reps times, keeping the last sweep, and reports
// the median set-up time.
func setupRepeated(ctx context.Context, kind string, scale, reps int) (*sweep, float64, error) {
	var sw *sweep
	var times []float64
	for i := 0; i < reps; i++ {
		// Return the previous set-up's pools and store to the OS, so the
		// repetitions do not inflate the peak RSS.
		sw = nil
		debug.FreeOSMemory()
		t := time.Now()
		var err error
		if sw, err = setupSweep(ctx, kind, scale); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return sw, median(times), nil
}

// pass lists one measured pass: programs in a seeded order.
func (sw *sweep) pass(rng *rand.Rand) passSpecs {
	order := rng.Perm(len(sw.progs))
	var ps passSpecs
	if sw.kind == kindGrid {
		ps = gridPass(sw.progs, order)
	} else {
		for _, i := range order {
			ps.add(sampledSpec(sw.progs[i], sw.kind), sw.progs[i].name, "")
		}
	}
	for i := range ps.keys {
		ps.keys[i] = goldenKey(sw.scale, sw.kind, ps.program[i], ps.config[i])
	}
	return ps
}

// latencyObserver times each spec from the runner starting it to its
// result coming back, and sums the time the runner's jobs were busy: a
// lockstep group's members share one job, so each member counts its
// share of the group's time.
type latencyObserver struct {
	mu     sync.Mutex
	share  []float64 // per spec index: 1 / members of its group
	start  map[int]time.Time
	ms     []float64
	busyNS float64
}

func newLatencyObserver(ps passSpecs, batched bool) *latencyObserver {
	members := map[*isa.Program]int{}
	for _, s := range ps.specs {
		members[s.Program]++
	}
	o := &latencyObserver{share: make([]float64, len(ps.specs)), start: map[int]time.Time{}}
	for i, s := range ps.specs {
		o.share[i] = 1
		if batched {
			o.share[i] = 1 / float64(members[s.Program])
		}
	}
	return o
}

func (o *latencyObserver) OnStart(index, total int, key string) {
	o.mu.Lock()
	o.start[index] = time.Now()
	o.mu.Unlock()
}

func (o *latencyObserver) OnFinish(index, total int, r sim.Result) {
	end := time.Now()
	o.mu.Lock()
	d := end.Sub(o.start[index])
	o.ms = append(o.ms, float64(d.Microseconds())/1000)
	o.busyNS += float64(d.Nanoseconds()) * o.share[index]
	o.mu.Unlock()
}

// sweepTally accumulates the measured passes.
type sweepTally struct {
	passes  int
	walls   []float64 // per pass, s
	busy    float64   // job-seconds the runner's jobs were busy
	samples samples   // one per pass
	retired uint64
	results int
	ffInstr uint64
	ipcErr  float64
	last    []sim.Result
}

// check verifies one pass's results against the golden outcomes and
// folds them into the tally.
func (sw *sweep) check(ps passSpecs, res []sim.Result, g *golden, r *Result, t *sweepTally) {
	for i := range res {
		r.Attempted++
		x := &res[i]
		if x.Err != nil {
			r.fail("%s: %v", ps.keys[i], x.Err)
			continue
		}
		if msg := g.check(ps.keys[i], specOutcome(x)); msg != "" {
			r.fail("%s", msg)
			continue
		}
		if sw.kind == kindKMeans && (x.FFExecuted != 0 || x.CkptHits == 0) {
			r.fail("%s: checkpoint-warm run emulated %d instructions with %d restores", ps.keys[i], x.FFExecuted, x.CkptHits)
			continue
		}
		t.results++
		if x.TotalRetired > 0 {
			t.retired += x.TotalRetired
			full := g.Specs[ps.keys[i]].FullIPC
			t.ipcErr = math.Max(t.ipcErr, 100*math.Abs(x.ExtrapolatedIPC-full)/full)
		} else {
			t.retired += x.Stats.Retired
		}
		t.ffInstr += x.FFExecuted
	}
}

// runPasses runs measured passes until the next one would overrun
// budget (at least one) and returns the tally.
func (sw *sweep) runPasses(ctx context.Context, rng *rand.Rand, budget time.Duration, g *golden, r *Result) (*sweepTally, error) {
	t := &sweepTally{}
	start := time.Now()
	var last time.Duration
	for t.passes == 0 || time.Since(start)+last <= budget {
		ps := sw.pass(rng)
		o := newLatencyObserver(ps, sw.runner.Batching)
		sw.runner.Observer = o
		t0 := time.Now()
		res, err := sw.runner.Run(ctx, ps.specs)
		last = time.Since(t0)
		sw.runner.Observer = nil
		if res == nil {
			return nil, err
		}
		retired, results := t.retired, t.results
		sw.check(ps, res, g, r, t)
		t.passes++
		t.walls = append(t.walls, last.Seconds())
		t.busy += o.busyNS / 1e9
		// Rates over the jobs' busy time: the idle tail at the end of a
		// pass depends on which program the seeded order puts last, not
		// on the simulator.
		busy := o.busyNS / 1e9 / sweepJobs
		t.samples.add(float64(t.retired-retired)/busy, float64(t.results-results)/busy, o.ms)
		t.last = res
	}
	return t, nil
}

// runSweepWorkload is the run function of the three sweep workloads.
func runSweepWorkload(kind string) func(options, *golden, *Result, *tracer) error {
	return func(o options, g *golden, r *Result, tr *tracer) error {
		ctx := context.Background()
		sw, setup, err := setupRepeated(ctx, kind, o.scale, o.setups())
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(o.seed))
		budget := time.Duration(o.seconds) * time.Second
		if o.smoke {
			budget = 0 // one pass
		}
		if tr != nil {
			return sw.traced(ctx, rng, budget, setup, g, r, tr)
		}
		t, err := sw.runPasses(ctx, rng, budget, g, r)
		if err != nil {
			return err
		}
		r.Metrics["setup_s"] = Metric{setup, "s"}
		t.samples.report(r)
		r.Detail["pass_s_median"] = Metric{median(t.walls), "s"}
		if kind != kindGrid {
			r.Detail["ipc_err_max_pct"] = Metric{t.ipcErr, "%"}
		}
		r.Samples["passes"] = t.passes
		r.Samples["results"] = t.results
		r.Samples["setups"] = o.setups()
		return nil
	}
}

// traced runs untraced passes for half the budget, then traced passes
// for the other half, and reports the per-layer split of the traced ones.
// The grid and the uniform sampler are driven directly through the core
// and emu calls the runner makes; the phase-selected sampler runs through
// the runner, observed through its hooks and the checkpoint counters.
func (sw *sweep) traced(ctx context.Context, rng *rand.Rand, budget time.Duration, setup float64, g *golden, r *Result, tr *tracer) error {
	base, err := sw.runPasses(ctx, rng, budget/2, g, r)
	if err != nil {
		return err
	}
	from := tr.mark()
	lt := &layerTally{}
	start := time.Now()
	var last time.Duration
	var walls []float64
	results := base.last
	for len(walls) == 0 || time.Since(start)+last <= budget/2 {
		ps := sw.pass(rng)
		switch sw.kind {
		case kindGrid:
			last, err = sw.tracedGridPass(ctx, ps, g, r, tr, lt)
		case kindUniform:
			last, err = sw.tracedUniformPass(ctx, ps, g, r, tr, lt)
		default:
			last, results, err = sw.tracedKMeansPass(ctx, ps, g, r, tr, lt)
		}
		if err != nil {
			return err
		}
		walls = append(walls, last.Seconds())
	}
	passes := float64(len(walls))
	self := tr.selfNS(from)
	set := func(name string, v float64) { r.Metrics[name] = Metric{v, unitOf(name)} }

	// Layer shares are of the jobs' busy time, the summed spec spans;
	// sim.run_pct is that busy time's share of jobs x wall.
	run := float64(tr.totalNS(from, "sim.spec"))
	detail := float64(self["core.batch_run"] + self["core.window"])
	reset := float64(self["core.reset"])
	warm := float64(self["emu.ff_warm"]) - lt.ffProbeNS
	ff := float64(self["emu.ff"]) + lt.ffProbeNS
	verify := float64(self["emu.verify"])
	leaves := detail + reset + warm + ff + verify
	baseBusy := base.busy * 1e9 / float64(base.passes)
	if sw.kind == kindKMeans {
		// A runner window span (OnWindow to the next OnWindow) holds the
		// detailed window, the next boundary's restore and the core
		// re-seed; restores are costed by probing the same blobs. What
		// the spec spans hold outside windows is the runner's own work.
		windows := float64(tr.totalNS(from, "sim.window"))
		detail = windows - lt.restoreNS
		leaves = run
		set("sim.overhead_pct", pct(run-windows, run))
	} else {
		// Runner overhead: what an untraced pass costs beyond the layer
		// calls it makes, measured by driving the same calls directly.
		set("sim.overhead_pct", pct(baseBusy-leaves/passes, baseBusy))
	}
	set("core.detail_pct", pct(detail, run))
	set("core.reset_pct", pct(reset, run))
	set("core.warm_pct", pct(warm, run))
	set("emu.ff_pct", pct(ff, run))
	set("emu.verify_pct", pct(verify, run))
	set("ckpt.restore_pct", pct(lt.restoreNS, run))
	set("sim.run_pct", pct(run, float64(sweepJobs)*sum(walls)*1e9))
	set("sim.unattributed_frac", 1-leaves/run)
	set("trace.overhead_frac", run/passes/baseBusy-1)
	set("workloads.build_s", sw.build.Seconds())
	set("core.cycles", float64(lt.cycles)/passes)
	set("core.retired", float64(lt.retired)/passes)
	set("core.ns_per_cycle", ratio(detail, float64(lt.cycles)))
	set("emu.ff_instr", float64(lt.ffInstr)/passes)
	set("emu.ns_per_instr", ratio(ff+verify, float64(lt.ffInstr+lt.verifyInstr)))
	set("ckpt.restore_us", lt.restoreUS)
	set("ckpt.hits", float64(lt.ck.Hits)/passes)
	set("ckpt.misses", float64(lt.ck.Misses)/passes)
	set("ckpt.bytes_read", float64(lt.ck.BytesRead)/passes)
	set("ckpt.entries", float64(lt.ckEntries))
	set("ckpt.bytes", float64(lt.ckBytes))
	specMS := tr.durationsMS(from, "sim.spec")
	set("sim.spec_ms_p50", percentile(specMS, 0.5))
	set("sim.spec_ms_p99", percentile(specMS, 0.99))
	winMS := tr.durationsMS(from, "core.window")
	if sw.kind == kindKMeans {
		winMS = tr.durationsMS(from, "sim.window")
	}
	set("sim.window_ms_p50", percentile(winMS, 0.5))
	set("sim.profile_setup_pct", pct(sw.profile.Seconds(), setup))
	wire := make([]api.Result, len(results))
	for i := range results {
		wire[i] = api.ResultFromSim(results[i], api.SourceRun)
	}
	enc, dec := apiProbe(wire)
	set("api.encode_us", enc)
	set("api.decode_us", dec)
	fillZeros(r.Metrics)
	r.Samples["passes_untraced"] = base.passes
	r.Samples["passes_traced"] = len(walls)
	r.Samples["spans"] = tr.mark() - from
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// layerTally carries the traced passes' counts and probe results.
type layerTally struct {
	mu          sync.Mutex
	cycles      uint64
	retired     uint64
	ffInstr     uint64
	verifyInstr uint64
	ffProbeNS   float64 // the warmed skips re-run without the warm hook
	restoreNS   float64 // probed cost per restore x restores made
	restoreUS   float64
	ck          ckpt.Counters
	ckEntries   int
	ckBytes     int64
}

// forEachParallel hands the indices 0..n-1 to sweepJobs workers, each
// built by newWorker so it can keep its own cores, and returns the first
// error.
func forEachParallel(n int, newWorker func() func(i int) error) error {
	var mu sync.Mutex
	var first error
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < sweepJobs; w++ {
		fn := newWorker()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	return first
}

// tracedGridPass drives one grid pass through core.New/Reset,
// core.NewBatch, Batch.Run and emu.RunProgram — the calls the batching
// runner makes — on two workers, each keeping one core per
// configuration the way the runner's pool does.
func (sw *sweep) tracedGridPass(ctx context.Context, ps passSpecs, g *golden, r *Result, tr *tracer, lt *layerTally) (time.Duration, error) {
	// The lockstep groups: runs of specs sharing one program copy.
	var groups [][]int
	for i := range ps.specs {
		if i == 0 || ps.specs[i].Program != ps.specs[i-1].Program {
			groups = append(groups, nil)
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], i)
	}
	t := time.Now()
	err := forEachParallel(len(groups), func() func(int) error {
		pool := map[string]*core.Core{}
		return func(k int) error { return tracedGroup(ctx, ps, groups[k], pool, g, r, tr, lt) }
	})
	return time.Since(t), err
}

func tracedGroup(ctx context.Context, ps passSpecs, grp []int, pool map[string]*core.Core, g *golden, r *Result, tr *tracer, lt *layerTally) error {
	prog := ps.specs[grp[0]].Program
	trace := ps.keys[grp[0]]
	t0 := time.Now()
	root := tr.open("sim.spec", trace, 0, t0) // every member's result is ready when the group ends
	cores := make([]*core.Core, len(grp))
	for k, i := range grp {
		c := pool[ps.config[i]]
		if c == nil {
			cfg, err := ps.specs[i].Config()
			if err != nil {
				return err
			}
			c = core.New(prog, cfg)
			pool[ps.config[i]] = c
		} else {
			c.Reset(prog)
		}
		cores[k] = c
	}
	t1 := time.Now()
	tr.record("core.reset", trace, root, t0, t1)
	b, err := core.NewBatch(cores, 0)
	if err != nil {
		return err
	}
	runErrs := b.Run(ctx)
	t2 := time.Now()
	tr.record("core.batch_run", trace, root, t1, t2)
	want, err := emu.RunProgram(prog, 1<<40)
	t3 := time.Now()
	tr.record("emu.verify", trace, root, t2, t3)
	tr.close(root, t3)
	if err != nil {
		return err
	}

	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.verifyInstr += want.Retired
	for k, i := range grp {
		c := cores[k]
		lt.cycles += c.Stats.Cycles
		lt.retired += c.Stats.Retired
		r.Attempted++
		switch {
		case runErrs[k] != nil:
			r.fail("traced %s: %v", ps.keys[i], runErrs[k])
		case c.Result() != want:
			r.fail("traced %s: architectural mismatch", ps.keys[i])
		default:
			got := goldenSpec{Retired: c.Stats.Retired, Cycles: c.Stats.Cycles, Digest: statsDigest(c.Stats)}
			if msg := g.check(ps.keys[i], got); msg != "" {
				r.fail("traced %s", msg)
			}
		}
	}
	return nil
}

// segment is a span of functional instructions a warmed skip executed.
type segment struct{ from, to uint64 }

// tracedUniformPass replays the uniform sampler's window loop through
// emu.FastForward (warmed by Core.WarmStep) and Core.ResetWindow,
// EndWarmup, SeedFrom and RunWindow on two workers. Each spec must
// reproduce the runner's Stats, window count and totals exactly. After
// the timed pass, the warmed skips are re-run without the hook, so the
// hook's cost is the difference.
func (sw *sweep) tracedUniformPass(ctx context.Context, ps passSpecs, g *golden, r *Result, tr *tracer, lt *layerTally) (time.Duration, error) {
	segs := make([][]segment, len(ps.specs))
	t := time.Now()
	err := forEachParallel(len(ps.specs), func() func(int) error {
		var c *core.Core
		return func(i int) error {
			s := ps.specs[i]
			if c == nil {
				cfg, err := s.Config()
				if err != nil {
					return err
				}
				c = core.New(s.Program, cfg)
			} else {
				c.Reset(s.Program)
			}
			out, err := tracedUniformSpec(ctx, s, ps.keys[i], c, tr, lt, &segs[i])
			if err != nil {
				return err
			}
			lt.mu.Lock()
			defer lt.mu.Unlock()
			r.Attempted++
			if msg := g.check(ps.keys[i], out); msg != "" {
				r.fail("traced %s", msg)
			}
			return nil
		}
	})
	wall := time.Since(t)
	for i, s := range ps.specs {
		lt.ffProbeNS += probeUnhooked(s.Program, segs[i])
	}
	return wall, err
}

// tracedUniformSpec is the runner's uniform window loop (warmed skips, no
// checkpoint store) with each call wrapped in a span.
func tracedUniformSpec(ctx context.Context, s sim.Spec, trace string, c *core.Core, tr *tracer, lt *layerTally, segs *[]segment) (goldenSpec, error) {
	prog := s.Program
	root := tr.open("sim.spec", trace, 0, time.Now())
	step := func(name string, fn func()) {
		t0 := time.Now()
		fn()
		tr.record(name, trace, root, t0, time.Now())
	}
	em := emu.New(prog)
	agg := &stats.Stats{}
	var pre, win stats.Stats
	var pendingReplay, pos, detailRetired, detailCycles, cycles, ff uint64
	windows := 0
	halted := false
	var runErr error
	for k := 0; k < s.SamplePeriods; k++ {
		if k > 0 {
			step("core.reset", func() { c.ResetWindow(prog) })
		}
		want := pos + pendingReplay + s.FastForward
		if pendingReplay > 0 {
			step("emu.ff", func() { ff += em.FastForward(pendingReplay, nil) })
		}
		if want > em.Retired {
			from := em.Retired
			step("emu.ff_warm", func() { ff += em.FastForward(want-em.Retired, c.WarmStep) })
			*segs = append(*segs, segment{from, em.Retired})
		}
		pendingReplay = 0
		pos = em.Retired
		if em.Halted {
			break
		}
		step("core.reset", func() {
			c.EndWarmup()
			st := em.State()
			c.SeedFrom(&st)
		})
		step("core.window", func() { runErr = c.RunWindow(ctx, s.DetailedWindow/4, s.DetailedWindow, &pre, &win) })
		cycles += c.Cycles()
		agg.Add(&win)
		windows++
		detailRetired += win.Retired
		detailCycles += win.Cycles
		if runErr != nil {
			return goldenSpec{}, fmt.Errorf("traced %s: %w", trace, runErr)
		}
		if c.Halted() {
			halted = true
			break
		}
		pendingReplay = c.Stats.Retired
	}
	var total uint64
	if halted {
		total = c.Result().Retired
	} else {
		step("emu.ff", func() {
			ff += em.FastForward(pendingReplay, nil)
			before := em.Retired
			runErr = em.Run(1 << 40)
			ff += em.Retired - before
		})
		if runErr != nil {
			return goldenSpec{}, fmt.Errorf("traced %s: %w", trace, runErr)
		}
		total = em.Retired
	}
	tr.close(root, time.Now())
	lt.mu.Lock()
	lt.cycles += cycles
	lt.retired += detailRetired
	lt.ffInstr += ff
	lt.mu.Unlock()
	out := goldenSpec{Retired: agg.Retired, Cycles: agg.Cycles, Digest: statsDigest(agg),
		Windows: windows, TotalRetired: total}
	if detailCycles > 0 {
		out.SampledIPC = float64(detailRetired) / float64(detailCycles)
	}
	return out, nil
}

// probeUnhooked re-executes the warmed skips of one spec without the
// warm hook and returns their time in ns.
func probeUnhooked(prog *isa.Program, segs []segment) float64 {
	em := emu.New(prog)
	var ns int64
	for _, s := range segs {
		em.FastForward(s.from-em.Retired, nil)
		t := time.Now()
		em.FastForward(s.to-s.from, nil)
		ns += time.Since(t).Nanoseconds()
	}
	return float64(ns)
}

// windowObserver records the phase-selected runner's specs and windows as
// spans through the Runner's Observer and OnWindow hooks.
type windowObserver struct {
	tr   *tracer
	mu   sync.Mutex
	keys []string
	spec map[int]int // spec index -> its open sim.spec span
	win  map[int]int // spec index -> its open sim.window span
}

func (o *windowObserver) OnStart(index, total int, key string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.spec[index] = o.tr.open("sim.spec", o.keys[index], 0, time.Now())
}

func (o *windowObserver) OnFinish(index, total int, r sim.Result) {
	now := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	if id, ok := o.win[index]; ok {
		o.tr.close(id, now)
	}
	o.tr.close(o.spec[index], now)
}

func (o *windowObserver) onWindow(index int, key string, window, windows int) {
	now := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	if id, ok := o.win[index]; ok {
		o.tr.close(id, now)
	}
	o.win[index] = o.tr.open("sim.window", o.keys[index], o.spec[index], now)
}

// tracedKMeansPass runs one checkpoint-warm pass through the runner with
// its hooks recording spans, takes the checkpoint store's counter
// deltas, and then probes restores of the pass's own blobs.
func (sw *sweep) tracedKMeansPass(ctx context.Context, ps passSpecs, g *golden, r *Result, tr *tracer, lt *layerTally) (time.Duration, []sim.Result, error) {
	o := &windowObserver{tr: tr, keys: ps.keys, spec: map[int]int{}, win: map[int]int{}}
	sw.runner.Observer, sw.runner.OnWindow = o, o.onWindow
	store := sw.runner.Checkpoints
	before := store.Counters()
	t := time.Now()
	res, err := sw.runner.Run(ctx, ps.specs)
	wall := time.Since(t)
	after := store.Counters()
	sw.runner.Observer, sw.runner.OnWindow = nil, nil
	if res == nil {
		return 0, nil, err
	}
	tally := &sweepTally{}
	sw.check(ps, res, g, r, tally)
	lt.ck.Hits += after.Hits - before.Hits
	lt.ck.Misses += after.Misses - before.Misses
	lt.ck.BytesRead += after.BytesRead - before.BytesRead
	lt.ckEntries, lt.ckBytes = store.Len(), store.Size()
	lt.ffInstr += tally.ffInstr
	for i := range res {
		if res[i].Stats != nil {
			lt.cycles += res[i].Stats.Cycles
			lt.retired += res[i].Stats.Retired
		}
	}
	us, err := probeRestores(store, ps.specs)
	if err != nil {
		return 0, nil, err
	}
	lt.restoreUS = us
	lt.restoreNS += us * 1e3 * float64(after.Hits-before.Hits)
	return wall, res, nil
}

// probeRestores times Store.Get + Emulator.RestoreBinary on the boundary
// checkpoints phase-selected runs restore: the warm-up positions (Pre)
// of each program's phase profile, as persisted in the store. It returns
// the median microseconds per blob.
func probeRestores(store *ckpt.Store, specs []sim.Spec) (float64, error) {
	var us []float64
	for _, s := range specs {
		key := fmt.Sprintf("%s#profile1+ff%d+dw%d+sp%d", s.Program.Name, s.FastForward, s.DetailedWindow, s.SamplePeriods)
		blob, ok := store.Get(key)
		if !ok {
			return 0, fmt.Errorf("probe: no persisted profile %s", key)
		}
		var prof struct {
			Pre []uint64 `json:"pre"`
		}
		if err := json.Unmarshal(blob, &prof); err != nil {
			return 0, fmt.Errorf("probe: profile %s: %w", key, err)
		}
		em := emu.New(s.Program)
		for _, pos := range prof.Pre {
			t := time.Now()
			b, ok := store.Get(fmt.Sprintf("%s#%d", s.CheckpointKey(), pos))
			if !ok {
				continue // position 0 is the program entry, never captured
			}
			if err := em.RestoreBinary(b); err != nil {
				return 0, fmt.Errorf("probe: restore %s#%d: %w", s.CheckpointKey(), pos, err)
			}
			us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
		}
	}
	return percentile(us, 0.5), nil
}

// apiProbe times the JSON encoding of wire results, as the server
// writes them, and the decoding back, as the client reads them, in us
// per result.
func apiProbe(results []api.Result) (enc, dec float64) {
	if len(results) == 0 {
		return 0, 0
	}
	blobs := make([][]byte, len(results))
	t := time.Now()
	for i := range results {
		blobs[i], _ = json.Marshal(&results[i])
	}
	enc = float64(time.Since(t).Nanoseconds()) / 1e3 / float64(len(results))
	t = time.Now()
	for _, b := range blobs {
		var r api.Result
		_ = json.Unmarshal(b, &r)
	}
	dec = float64(time.Since(t).Nanoseconds()) / 1e3 / float64(len(blobs))
	return enc, dec
}

// fillZeros reports every per-layer metric a workload did not set as 0:
// the layer did no work in it.
func fillZeros(m map[string]Metric) {
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = Metric{0, d.unit}
		}
	}
}

func unitOf(name string) string {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.name == name {
			return d.unit
		}
	}
	panic("bench: unknown metric " + name)
}
