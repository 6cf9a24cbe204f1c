package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"mssr/internal/ckpt"
	"mssr/internal/core"
	"mssr/internal/emu"
	"mssr/internal/isa"
	"mssr/internal/obs"
	"mssr/internal/stats"
)

// Result is the outcome of one spec's run. Results come back in spec
// order regardless of the completion order of the pool's workers.
type Result struct {
	// Index is the spec's position in the Run input.
	Index int
	// Key is the spec's resolved key (Spec.Key).
	Key string
	// Spec is the spec that produced this result.
	Spec Spec
	// Program is the resolved program name.
	Program string
	// EngineName is the constructed engine's self-description.
	EngineName string
	// Stats holds the run's counters. On a cycle-limit or cancellation
	// error it holds the counters up to the abort; on earlier failures it
	// is nil.
	Stats *stats.Stats
	// Intervals is the run's interval-telemetry stream, populated when the
	// spec set SampleInterval (nil otherwise). The slice is a copy — it
	// never aliases pooled-core state.
	Intervals []obs.Interval
	// IntervalsDropped counts intervals the sampler's bounded ring
	// overwrote before the run finished (0 = complete stream).
	IntervalsDropped int
	// Arch is the final architectural state (populated when VerifyArch is
	// set and the run completed).
	Arch emu.Result
	// Wall is the host time this spec's run took: its own time in the
	// detailed pipeline plus an equal share of its job's other work
	// (program build, core draw, reference emulation). A lone spec's
	// Wall is therefore its whole job's duration, and a batch group's
	// member Walls sum to the group's.
	Wall time.Duration
	// Multi-fidelity outcome, populated only when the spec set FastForward
	// (all zero-valued otherwise, so full-detail results — and their JSON —
	// are unchanged). Stats then covers the measured detailed windows
	// only; TotalRetired is the whole program's dynamic instruction count
	// and FastForwarded the rest — the functional skips plus each window's
	// measurement-excluded detailed-warmup prefix — so Stats.Retired +
	// FastForwarded == TotalRetired always holds.
	//
	// Extrapolated marks a sampled run (DetailedWindow > 0): the program
	// finished on the functional emulator and ExtrapolatedIPC is the
	// window-sampled IPC estimate with IPCErrorEst its relative standard
	// error (0 with fewer than two windows). A fast-forward-only run
	// (DetailedWindow == 0) is exact, not extrapolated: the detailed core
	// ran to HALT and the architectural end state is bit-for-bit the
	// full-detail one.
	Extrapolated    bool
	Windows         int
	FastForwarded   uint64
	TotalRetired    uint64
	ExtrapolatedIPC float64
	IPCErrorEst     float64
	// Checkpoint accounting for multi-fidelity runs. CkptHits counts
	// sample-period boundaries (and the program-end state) restored from
	// the checkpoint store; CkptMisses counts lookups that had to
	// re-emulate instead. FFExecuted counts the functional instructions
	// this run actually emulated — skips, window replays and the tail —
	// as opposed to FastForwarded, which counts the instructions the
	// result did not measure in detail regardless of how their state was
	// obtained. A fully checkpoint-warm run reports FFExecuted == 0.
	// These are execution-path observables, not result content: byte
	// identity between cold and warm runs is defined over everything
	// else.
	CkptHits   int
	CkptMisses int
	FFExecuted uint64
	// MIPS is the spec's simulated throughput over Wall: retired
	// instructions per host wall-clock microsecond (millions of
	// simulated instructions per second). Zero when the job failed
	// before producing stats.
	MIPS float64
	// Err is the job's failure, nil on success. Panics inside the job are
	// recovered into errors; a timeout satisfies
	// errors.Is(Err, context.DeadlineExceeded).
	Err error
}

// Backend executes a batch of specs and returns one Result per spec, in
// spec order. *Runner is the in-process implementation; client.Remote
// submits the batch to an msrd daemon instead. Consumers that only sweep
// (the experiment drivers) depend on this interface so the same driver
// code runs locally or against a daemon.
type Backend interface {
	Run(ctx context.Context, specs []Spec) ([]Result, error)
}

// Runner executes specs on a bounded worker pool. The zero value is
// ready to use: NumCPU workers, no default timeout, no observer.
type Runner struct {
	// Jobs bounds concurrently running simulations (<=0 = NumCPU).
	Jobs int
	// Timeout is each spec's time budget unless the spec sets its own
	// (0 = unbounded). A batch group's members share one clock, so the
	// group is bounded by the sum of their budgets.
	Timeout time.Duration
	// Observer, when set, receives per-job start/finish notifications.
	Observer Observer
	// OnInterval, when set, receives every telemetry interval live, at
	// the moment the core's sampler records it — before the run (or even
	// its current sample window) completes. index is the spec's position
	// in the Run input and key its resolved Spec.Key(). Multi-fidelity
	// runs arrive already annotated (Mode/Window), matching the records
	// the final Result carries. The callback fires on simulation worker
	// goroutines, possibly concurrently for different specs: it must be
	// thread-safe and must not block (events.Hub.Publish satisfies both).
	OnInterval func(index int, key string, iv obs.Interval)
	// OnWindow, when set, fires as each detailed window of a
	// multi-fidelity run begins: window is the 1-based sample period,
	// windows the configured period count. Same concurrency contract as
	// OnInterval.
	OnWindow func(index int, key string, window, windows int)

	// Batching chooses how specs are grouped into jobs. Without it every
	// spec is a job of its own; with it, compatible full-detail specs —
	// same workload+scale (or the same pre-built Program), no tracer, no
	// per-spec timeout — share one job. Every full-detail job steps its
	// cores in lockstep on a core.Batch (a lone spec is a group of one),
	// so a group builds its program once, runs the VerifyArch reference
	// emulation once, and keeps the instruction stream hot in the host
	// caches across its members. Per-spec results are bit-identical
	// either way (the members are fully independent cores) and come back
	// in submission order regardless of how grouping reorders execution.
	Batching bool

	// Checkpoints is the store multi-fidelity jobs restore sample-period
	// boundary states from (and capture them into), keyed by
	// Spec.CheckpointKey. Nil selects a process-wide default bounded
	// in-memory store, created lazily and shared by every Runner without
	// one, so repeated sweeps in one process warm each other. Point it at
	// a ckpt.Open store to persist checkpoints across processes.
	Checkpoints *ckpt.Store

	// pools caches fully-built cores per pool key (engine + geometry +
	// config modifiers) so successive jobs with the same configuration
	// reuse the core's PRF/ROB/predictor-table allocations. Workers own
	// a core exclusively between Get and Put, which keeps the pooling
	// race-free.
	pools sync.Map // string -> *sync.Pool of *core.Core

	// profiles caches phase profiles (one per program + fidelity
	// geometry) with single-flight computation, backed by the checkpoint
	// store for cross-process reuse.
	profMu   sync.Mutex
	profiles map[string]*phaseProfile
	profRuns map[string]chan struct{}
}

// defaultCkpt is the process-wide fallback checkpoint store of Runners
// built without Checkpoints, such as msrsim's and msrbench's: sharing it
// lets successive sweeps in one process warm each other. The server
// instead hands every per-job Runner the store in its
// Config.Checkpoints.
var (
	defaultCkptOnce sync.Once
	defaultCkpt     *ckpt.Store
)

// ckptStore resolves the checkpoint store a spec's run uses: nil when
// the spec opted out or has no stable program identity to key off.
func (r *Runner) ckptStore(s *Spec) *ckpt.Store {
	if s.NoCheckpoint {
		return nil
	}
	if s.Workload == "" && (s.Program == nil || s.Program.Name == "") {
		return nil // anonymous programs would collide in the store
	}
	if r.Checkpoints != nil {
		return r.Checkpoints
	}
	defaultCkptOnce.Do(func() { defaultCkpt = ckpt.NewMemory(ckpt.DefaultMemBytes) })
	return defaultCkpt
}

// pool returns the core pool for key, creating it on first use.
func (r *Runner) pool(key string) *sync.Pool {
	if p, ok := r.pools.Load(key); ok {
		return p.(*sync.Pool)
	}
	p, _ := r.pools.LoadOrStore(key, &sync.Pool{})
	return p.(*sync.Pool)
}

// Run executes every spec and returns one Result per spec, in spec
// order. All specs are validated up front; nothing runs if any is
// invalid. Job failures (errors, panics, timeouts) do not stop the
// sweep: every remaining job still runs, and the returned error joins
// every failure wrapped with its job key, so callers see all failures
// and still have the successful results.
func (r *Runner) Run(ctx context.Context, specs []Spec) ([]Result, error) {
	var verrs []error
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			verrs = append(verrs, err)
		}
	}
	if len(verrs) > 0 {
		return nil, errors.Join(verrs...)
	}
	if len(specs) == 0 {
		return nil, nil
	}

	results := make([]Result, len(specs))
	jobs := r.groupJobs(specs)
	workers := r.Jobs
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range idx {
				r.runJob(ctx, specs, jobs[j], results)
			}
		}()
	}

	next := 0
dispatch:
	for ; next < len(jobs); next++ {
		select {
		case idx <- next:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()

	// Jobs the cancellation prevented from starting still get a keyed
	// result so the output stays positional.
	for j := next; j < len(jobs); j++ {
		for _, i := range jobs[j] {
			results[i] = Result{Index: i, Key: specs[i].Key(), Spec: specs[i], Err: ctx.Err()}
		}
	}

	var errs []error
	for i := range results {
		if results[i].Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", results[i].Key, results[i].Err))
		}
	}
	return results, errors.Join(errs...)
}

// groupJobs partitions the spec indices into execution jobs. Without
// Batching every spec is its own job; with it, specs sharing a batchKey
// form one lockstep group. Grouping never changes result positions —
// each job carries the original submission indices and results are
// written positionally.
func (r *Runner) groupJobs(specs []Spec) [][]int {
	jobs := make([][]int, 0, len(specs))
	if !r.Batching {
		for i := range specs {
			jobs = append(jobs, []int{i})
		}
		return jobs
	}
	groups := make(map[string]int) // batch key -> index into jobs
	for i := range specs {
		key, ok := specs[i].batchKey()
		if !ok {
			jobs = append(jobs, []int{i})
			continue
		}
		if j, seen := groups[key]; seen {
			jobs[j] = append(jobs[j], i)
			continue
		}
		groups[key] = len(jobs)
		jobs = append(jobs, []int{i})
	}
	return jobs
}

// runJob executes one job — a lone spec or a lockstep group sharing a
// program — writing each member's Result at its submission index. The
// program is built once and every member draws its core once. A lone
// fast-forwarded spec then runs the multi-fidelity path; every
// full-detail job steps its cores on a core.Batch and checks VerifyArch
// against one reference emulation. The job's time budget is the sum of
// its members' (Spec.Timeout, else Runner.Timeout). A panic is recovered
// into the error of every member that has not failed already, and stats
// are cloned before pooled cores return, so results never alias them.
func (r *Runner) runJob(ctx context.Context, specs []Spec, idxs []int, results []Result) {
	var budget time.Duration
	for _, i := range idxs {
		results[i] = Result{Index: i, Key: specs[i].Key(), Spec: specs[i]}
		if r.Observer != nil {
			r.Observer.OnStart(i, len(specs), results[i].Key)
		}
		t := specs[i].Timeout
		if t == 0 {
			t = r.Timeout
		}
		budget += t
	}
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	start := time.Now()
	defer func() {
		p := recover()
		var stack []byte
		if p != nil {
			stack = debug.Stack()
		}
		// Wall holds each member's pipeline time so far; the rest of the
		// job's time is shared equally.
		other := time.Since(start)
		for _, i := range idxs {
			other -= results[i].Wall
		}
		share := other / time.Duration(len(idxs))
		for _, i := range idxs {
			res := &results[i]
			if p != nil && res.Err == nil {
				res.Err = fmt.Errorf("panic: %v\n%s", p, stack)
			}
			res.Wall += share
			if res.Stats != nil && res.Wall > 0 {
				// Multi-fidelity jobs report effective throughput: every
				// program instruction retired (functionally or in detail)
				// per wall second, which is the figure the mode exists to
				// improve.
				retired := res.Stats.Retired
				if res.TotalRetired > 0 {
					retired = res.TotalRetired
				}
				res.MIPS = float64(retired) / res.Wall.Seconds() / 1e6
			}
			if r.Observer != nil {
				r.Observer.OnFinish(i, len(specs), *res)
			}
		}
	}()

	prog, err := specs[idxs[0]].BuildProgram()
	if err != nil {
		for _, i := range idxs {
			results[i].Err = err
		}
		return
	}
	cores := make([]*core.Core, 0, len(idxs))
	members := make([]int, 0, len(idxs))
	pools := make([]*sync.Pool, 0, len(idxs))
	for _, i := range idxs {
		s := &specs[i]
		results[i].Program = prog.Name
		cfg, err := s.Config()
		if err != nil {
			results[i].Err = err
			continue
		}
		c, pl := r.drawCore(s, prog, cfg)
		results[i].EngineName = c.EngineName()
		cores = append(cores, c)
		members = append(members, i)
		pools = append(pools, pl)
	}
	if len(cores) == 0 {
		return
	}
	if s := &specs[members[0]]; s.FastForward > 0 {
		// batchKey keeps fast-forwarded specs out of groups, so this job
		// is the spec alone.
		r.runFidelity(ctx, s, prog, cores[0], &results[members[0]])
		cores[0].SetIntervalHook(nil)
		if pools[0] != nil {
			pools[0].Put(cores[0])
		}
		return
	}
	if r.OnInterval != nil {
		for k, i := range members {
			key := results[i].Key
			cores[k].SetIntervalHook(func(iv *obs.Interval) { r.OnInterval(i, key, *iv) })
		}
	}
	b, err := core.NewBatch(cores, 0)
	if err != nil {
		for _, i := range members {
			results[i].Err = err
		}
		return
	}
	errs := b.Run(ctx)
	walls := b.Walls()

	ref := reference(prog)
	for k, i := range members {
		c := cores[k]
		res := &results[i]
		res.Stats = c.Stats.Clone()
		res.Intervals = c.Intervals()
		res.IntervalsDropped = c.IntervalsDropped()
		res.Wall = walls[k]
		runErr := errs[k]
		var got emu.Result
		if runErr == nil && specs[i].VerifyArch {
			got = c.Result()
		}
		c.SetIntervalHook(nil)
		if pools[k] != nil {
			pools[k].Put(c)
		}
		if runErr != nil {
			res.Err = runErr
			continue
		}
		if specs[i].VerifyArch {
			verifyArch(res, got, ref)
		}
	}
}

// drawCore returns a core for s: a pooled one reset for prog when the
// spec is poolable, else a new one, with the pool it goes back to (nil
// when it must not). A core that panicked mid-run is never returned to
// the pool (runJob's recover exits before any Put).
func (r *Runner) drawCore(s *Spec, prog *isa.Program, cfg core.Config) (*core.Core, *sync.Pool) {
	key := s.poolKey()
	if key == "" {
		return core.New(prog, cfg), nil
	}
	pl := r.pool(key)
	if v := pl.Get(); v != nil {
		c := v.(*core.Core)
		c.Reset(prog)
		return c, pl
	}
	return core.New(prog, cfg), pl
}

// reference returns the reference emulation of prog's whole run,
// computed at most once however many results verify against it.
func reference(prog *isa.Program) func() (emu.Result, error) {
	return sync.OnceValues(func() (emu.Result, error) { return emu.RunProgram(prog, 1<<40) })
}

// verifyArch compares a core's final architectural state with the
// reference emulation's: a match becomes res.Arch, anything else
// res.Err.
func verifyArch(res *Result, got emu.Result, ref func() (emu.Result, error)) {
	want, err := ref()
	switch {
	case err != nil:
		res.Err = fmt.Errorf("emulator: %w", err)
	case got != want:
		res.Err = fmt.Errorf("architectural mismatch:\ncore: %+v\nemu:  %+v", got, want)
	default:
		res.Arch = got
	}
}

// Run executes a single spec synchronously and returns its result. The
// error is the result's Err wrapped with the job key.
func Run(ctx context.Context, spec Spec) (Result, error) {
	res, err := (&Runner{Jobs: 1}).Run(ctx, []Spec{spec})
	if err != nil {
		if len(res) == 1 {
			return res[0], err
		}
		return Result{Key: spec.Key(), Spec: spec}, err
	}
	return res[0], nil
}
