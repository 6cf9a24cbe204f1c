package core

import (
	"context"
	"errors"
	"fmt"

	"mssr/internal/bpred"
	"mssr/internal/emu"
	"mssr/internal/frontend"
	"mssr/internal/isa"
	"mssr/internal/mem"
	"mssr/internal/obs"
	"mssr/internal/rename"
	"mssr/internal/reuse"
	"mssr/internal/stats"
	"mssr/internal/trace"
)

// ErrCycleLimit is returned by Run when MaxCycles elapses before HALT
// commits.
var ErrCycleLimit = errors.New("core: cycle limit exceeded")

// robEntry is one in-flight instruction.
type robEntry struct {
	seq   uint64 // rename-order sequence (contiguous in the ROB)
	fseq  uint64 // fetch-order sequence (matches reuse.Request.Seq)
	pc    uint64
	instr isa.Instruction

	// Prediction metadata.
	predTaken bool
	predNext  uint64
	snapshot  bpred.Snapshot
	isCall    bool
	isReturn  bool

	// Rename metadata.
	hasDest  bool
	destPreg rename.PhysReg
	destGen  rename.RGID
	oldMap   rename.Mapping
	srcPregs [2]rename.PhysReg
	srcGens  [2]rename.RGID
	nsrc     int

	// Status.
	inIQ          bool
	issued        bool
	executed      bool
	completed     bool
	doneAt        uint64
	reused        bool
	verifPending  bool
	verifOK       bool
	mispredicted  bool
	hasCheckpoint bool

	// Execution results.
	result   uint64
	taken    bool
	nextPC   uint64 // resolved next PC for control instructions
	memAddr  uint64
	memValue uint64
	fwdFrom  uint64 // seq of the forwarding store; 0 = memory
	halt     bool

	// LSQ back-pointers, set at rename. lsqAbs is this instruction's own
	// absolute index in its load/store queue — the O(1) seq→entry
	// resolution that replaced the linear lsqFind scan. peerBound is the
	// opposite queue's tail at rename time: for a load, the absolute
	// index one past the youngest older store (the forwarding-scan
	// bound); for a store, the absolute index of the oldest younger load
	// (the violation-scan start).
	lsqAbs    uint64
	peerBound uint64
}

// lsqEntry is one load- or store-queue entry.
type lsqEntry struct {
	seq      uint64
	addr     uint64
	value    uint64
	executed bool
	fwdFrom  uint64 // loads: forwarding store seq, 0 = memory
	reused   bool
}

// rsEntry is one reservation-station slot: the few fields the issue scan
// needs, packed contiguously so waking up a stalled station is a walk
// over a compact array instead of a pointer chase through 200-byte ROB
// entries scattered across cache lines.
// Core is the out-of-order processor model executing one program.
type Core struct {
	cfg  Config
	prog *isa.Program

	// Substrates.
	bp      *bpred.Unit
	fu      *frontend.Unit
	hier    *mem.Hierarchy
	rat     *rename.RAT
	alloc   *rename.Allocator
	tracker *rename.Tracker
	engine  reuse.Engine
	// tryAll: the engine's TryReuse must observe every renamed
	// instruction (side effects beyond the reuse test itself); tryNever:
	// TryReuse is a pure no-op. Both let rename skip the call — and the
	// Request construction it pays for — when nothing can come of it;
	// when the call happens, it is unchanged. See Core.renameStage.
	tryAll   bool
	tryNever bool
	Stats    *stats.Stats

	// Physical register file.
	prf      []uint64
	prfReady []bool

	// ROB ring buffer. The backing array is rounded up to a power of two
	// so entry lookup — the hottest address computation in the cycle
	// loop — masks instead of dividing; logical capacity stays
	// cfg.ROBSize.
	rob     []robEntry
	robMask int
	headIdx int
	count   int
	headSeq uint64 // seq of the head entry
	nextSeq uint64 // next rename seq

	// Fetch. fetchSlot is the pre-bound nextFetchSlot method value handed
	// to frontend.NextBlockInto, built once so fetch never allocates.
	fseq            uint64
	fetchQ          ring[fetchedEntry]
	fetchSlot       func() *frontend.FetchedInstr
	lastRedirectSeq uint64

	// Rename checkpoints (Table 2's 32-checkpoint budget) and the
	// recovery stall modelling checkpoint-miss rollback walks.
	checkpointsInFlight int
	renameBlockedUntil  uint64

	// Scheduler. The reservation stations keep their full configured
	// capacity preallocated; issue and squash compact them in place, so
	// the cycle loop never reallocates them. Issued instructions are
	// scheduled on the completion wheel keyed by doneAt; writeback drains
	// exactly one bucket per cycle.
	iqs    sched        // ALU/BRU reservation station (event-driven; see sched)
	mems   sched        // LSU reservation station
	wheel  doneWheel    // issued, bucketed by completion cycle
	verifQ ring[uint64] // reused loads awaiting verification issue

	// LSQ (front-popped at commit, so rings rather than slices).
	loadQ  ring[lsqEntry]
	storeQ ring[lsqEntry]

	// storeExec tracks which store-queue entries have executed, one bit
	// per physical storeQ slot (slots are residency-stable, see
	// ring.Slot). The forwarding scan in readForLoad tests these bits and
	// dereferences only executed stores; storeExecCount lets a scan with
	// no executed stores anywhere skip straight to memory.
	storeExec      []uint64
	storeExecCount int

	// squashDests is the per-squash destination-register scratch bitmap
	// (indexed by PhysReg), marked and fully cleared within each
	// mispredictFlush so recovery never allocates.
	squashDests []bool

	// Committed architectural memory.
	mem *emu.Memory

	// RGID reset protocol (§3.3.2).
	suspendCommits int // stream capture suspended until this many commits

	// Interval telemetry. sampleAt is the next sampling boundary; with
	// no sampler it parks at MaxUint64 so the cycle loop pays a single
	// never-taken compare. onInterval, when set, observes each interval
	// the sampler records, live from the cycle loop (SetIntervalHook).
	sampler    *obs.Sampler
	sampleAt   uint64
	onInterval func(*obs.Interval)

	// Run state. retiredBase is the number of instructions the functional
	// emulator already retired before this core was seeded mid-program
	// (Core.SeedFrom); 0 for a from-entry run. Result folds it in so a
	// seeded window reports program-relative retirement counts.
	cycle       uint64
	halted      bool
	retiredBase uint64

	tracer trace.Tracer

	// Debug lockstep checker: the core-private emulator built when
	// cfg.DebugCheck is set, stepped once per committed instruction.
	checker *emu.Emulator
}

type fetchedEntry struct {
	fi      frontend.FetchedInstr
	fseq    uint64
	readyAt uint64
}

// New builds a core for prog under cfg. All capacity-dependent
// structures are sized here, once; the initial mutable state is
// installed by Reset, the same path pooled cores take between programs,
// so a fresh core and a Reset one are identical by construction.
func New(prog *isa.Program, cfg Config) *Core {
	robLen := ceilPow2(cfg.ROBSize)
	c := &Core{
		cfg:      cfg,
		bp:       bpred.New(cfg.BP),
		hier:     mem.NewHierarchy(cfg.Mem),
		rat:      rename.NewRAT(),
		alloc:    rename.NewAllocator(cfg.RGIDBits),
		tracker:  rename.NewTracker(cfg.PhysRegs, isa.NumArchRegs),
		Stats:    &stats.Stats{},
		prf:      make([]uint64, cfg.PhysRegs),
		prfReady: make([]bool, cfg.PhysRegs),
		rob:      make([]robEntry, robLen),
		robMask:  robLen - 1,
		fetchQ:   newRing[fetchedEntry](cfg.FetchQueue),
		verifQ:   newRing[uint64](cfg.LoadQueue),
		// In-flight instructions are bounded by the ROB, and the
		// dispatch-side IQSize/MemIQSize tests do not in fact stall (a
		// break inside the hazard switch leaves the switch only), so the
		// station pools must admit a full ROB's worth of entries to
		// reproduce the established model behaviour exactly.
		iqs:         newSched(cfg.ROBSize, cfg.PhysRegs),
		mems:        newSched(cfg.ROBSize, cfg.PhysRegs),
		wheel:       newDoneWheel(cfg.maxCompletionLatency()),
		loadQ:       newRing[lsqEntry](cfg.LoadQueue),
		storeQ:      newRing[lsqEntry](cfg.StoreQueue),
		storeExec:   make([]uint64, (cfg.StoreQueue+63)/64),
		squashDests: make([]bool, cfg.PhysRegs),
		mem:         emu.NewMemory(),
	}
	c.fu = frontend.New(prog, c.bp)
	c.fetchSlot = c.nextFetchSlot
	switch cfg.Reuse {
	case ReuseMultiStream:
		c.engine = reuse.NewMultiStream(cfg.MS, (*kernel)(c), c.Stats)
		// The armed/walk protocol observes every renamed instruction.
		c.tryAll = true
	case ReuseRI:
		c.engine = reuse.NewRegisterIntegration(cfg.RI, (*kernel)(c), c.Stats)
		c.tracker.OnFree = func(p rename.PhysReg) { c.engine.OnPregFreed(p) }
	case ReuseDIR:
		c.engine = reuse.NewDIR(cfg.DIR, (*kernel)(c), c.Stats)
		// The name scheme invalidates entries on every renamed
		// destination, so it too must see every instruction.
		c.tryAll = cfg.DIR.Scheme == reuse.DIRName
	default:
		c.engine = reuse.NewNone()
		c.tryNever = true
	}
	if cfg.DebugCheck {
		c.checker = emu.New(prog)
	}
	if cfg.SampleInterval > 0 {
		c.sampler = obs.NewSampler(cfg.SampleInterval, cfg.SampleWindow)
	}
	c.tracer = cfg.Tracer
	c.Reset(prog)
	return c
}

// ceilPow2 returns the smallest power of two >= n.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// emitTrace sends a pipeline event for e at the current cycle.
func (c *Core) emitTrace(kind trace.Kind, e *robEntry, note string) {
	if c.tracer == nil {
		return
	}
	c.tracer.Emit(trace.Event{
		Cycle: c.cycle, Kind: kind,
		Seq: e.seq, Fseq: e.fseq, PC: e.pc, Instr: e.instr, Note: note,
	})
}

// kernel adapts Core to reuse.Kernel without exporting the methods on Core.
type kernel Core

func (k *kernel) HoldPreg(p rename.PhysReg)    { k.tracker.Hold(p) }
func (k *kernel) ReleasePreg(p rename.PhysReg) { k.tracker.Release(p) }
func (k *kernel) PregLive(p rename.PhysReg) bool {
	return k.tracker.IsLive(p)
}
func (k *kernel) PregValue(p rename.PhysReg) (uint64, bool) {
	return k.prf[p], k.prfReady[p]
}

// entry returns the ROB entry with the given rename seq.
func (c *Core) entry(seq uint64) *robEntry {
	if seq < c.headSeq || seq >= c.headSeq+uint64(c.count) {
		panic(fmt.Sprintf("core: seq %d outside ROB [%d, %d)", seq, c.headSeq, c.headSeq+uint64(c.count)))
	}
	return &c.rob[(c.headIdx+int(seq-c.headSeq))&c.robMask]
}

func (c *Core) tailSeq() uint64 { return c.headSeq + uint64(c.count) }

// storeExecuted reports whether the store at absolute index abs has
// executed, via the per-slot bitmap (no entry dereference).
func (c *Core) storeExecuted(abs uint64) bool {
	s := c.storeQ.Slot(abs)
	return c.storeExec[s>>6]&(1<<uint(s&63)) != 0
}

// markStoreExecuted sets the executed bit for the store at abs. Called
// exactly once per store, at writeback.
func (c *Core) markStoreExecuted(abs uint64) {
	s := c.storeQ.Slot(abs)
	c.storeExec[s>>6] |= 1 << uint(s&63)
	c.storeExecCount++
}

// unmarkStoreExecuted clears the executed bit for the store at abs if
// set (commit and squash paths; squashed stores may not have executed).
func (c *Core) unmarkStoreExecuted(abs uint64) {
	s := c.storeQ.Slot(abs)
	w, b := s>>6, uint64(1)<<uint(s&63)
	if c.storeExec[w]&b != 0 {
		c.storeExec[w] &^= b
		c.storeExecCount--
	}
}

// Run simulates until the program halts, returning ErrCycleLimit if it
// does not.
func (c *Core) Run() error { return c.RunContext(context.Background()) }

// RunContext simulates until the program halts or ctx is done, checking
// for cancellation every 1024 cycles so a sweep's per-job timeouts and
// cancellation take effect promptly without a per-cycle cost. An aborted
// run returns ctx's error (wrapped) with Stats reflecting progress so
// far.
func (c *Core) RunContext(ctx context.Context) error {
	err := c.stepUntil(ctx, ^uint64(0))
	c.finishRun()
	return err
}

// stepUntil advances the pipeline until the core halts, at least
// retireTarget instructions have retired, ctx is cancelled, or the cycle
// limit elapses. It is the resumable inner loop RunContext and the batch
// driver share: pausing at a retire target and resuming is
// cycle-for-cycle identical to an uninterrupted run, because every
// stopping condition is evaluated at the loop head from state the loop
// itself maintains. stepUntil does not seal the run's counters — the
// caller invokes finishRun exactly once, after the final stepUntil call,
// so the sampler's trailing partial interval is flushed a single time.
func (c *Core) stepUntil(ctx context.Context, retireTarget uint64) error {
	done := ctx.Done()
	for !c.halted && c.Stats.Retired < retireTarget {
		if done != nil && c.cycle&1023 == 0 {
			select {
			case <-done:
				return fmt.Errorf("core: aborted after %d cycles (%d retired): %w", c.cycle, c.Stats.Retired, ctx.Err())
			default:
			}
		}
		if c.cycle >= c.cfg.MaxCycles {
			return fmt.Errorf("%w (%d cycles, %d retired)", ErrCycleLimit, c.cycle, c.Stats.Retired)
		}
		c.cycle++
		c.commit()
		if c.halted {
			break
		}
		c.writeback()
		c.issue()
		c.renameStage()
		c.fetch()
		if c.cycle >= c.sampleAt {
			c.takeSample()
		}
	}
	return nil
}

// finishRun seals the run's counters on every RunContext exit path: the
// final cycle count, the memory-hierarchy mirror, and the sampler's
// trailing partial interval.
func (c *Core) finishRun() {
	c.Stats.Cycles = c.cycle
	c.syncMemStats()
	if c.sampler != nil {
		if c.sampler.Flush(obs.SnapshotOf(c.cycle, c.Stats)) && c.onInterval != nil {
			c.onInterval(c.sampler.Last())
		}
	}
}

// takeSample closes the interval ending at the current cycle and arms
// the next boundary. Only called with a sampler attached (the disabled
// path parks sampleAt at MaxUint64).
func (c *Core) takeSample() {
	c.syncMemStats()
	c.sampler.Record(obs.SnapshotOf(c.cycle, c.Stats))
	if c.onInterval != nil {
		c.onInterval(c.sampler.Last())
	}
	c.sampleAt += c.cfg.SampleInterval
}

// SetIntervalHook installs fn to observe every interval the sampler
// records, at the moment it is recorded — the live-telemetry tap. The
// pointer aliases the sampler's ring; fn must copy the record if it
// outlives the call (publishing it by value through an events.Hub
// does). fn runs on the simulation goroutine: it must not block, and a
// nil-subscriber hub publish keeps the cycle loop allocation-free. A
// full Reset clears the hook (pooled cores never leak one run's hook
// into the next job); ResetWindow preserves it, so one hook covers all
// sample periods of a multi-fidelity run. No-op without a sampler.
func (c *Core) SetIntervalHook(fn func(*obs.Interval)) {
	if c.sampler == nil {
		return
	}
	c.onInterval = fn
}

// syncMemStats mirrors the memory-hierarchy counters into Stats. The
// hierarchy owns the live counters; results and telemetry samples read
// them through Stats.
func (c *Core) syncMemStats() {
	st, h := c.Stats, c.hier
	st.L1DHits, st.L1DMisses, st.L1DEvictions = h.L1.Hits, h.L1.Misses, h.L1.Evictions
	st.L2Hits, st.L2Misses, st.L2Evictions = h.L2.Hits, h.L2.Misses, h.L2.Evictions
	st.DRAMAccesses = h.DRAMAccesses
}

// Intervals returns a copy of the run's retained telemetry intervals
// (nil without a configured SampleInterval). The copy never aliases the
// sampler's ring, so it survives a pooled core's next Reset.
func (c *Core) Intervals() []obs.Interval {
	if c.sampler == nil {
		return nil
	}
	return c.sampler.Intervals()
}

// IntervalsDropped reports how many early intervals the sampler's ring
// overwrote (0 without a sampler).
func (c *Core) IntervalsDropped() int {
	if c.sampler == nil {
		return 0
	}
	return c.sampler.Dropped()
}

// Result returns the final architectural state in the same form as the
// functional emulator, enabling direct equivalence checks.
func (c *Core) Result() emu.Result {
	var r emu.Result
	for i := 0; i < isa.NumArchRegs; i++ {
		r.Regs[i] = c.prf[c.rat.Get(isa.Reg(i)).Preg]
	}
	r.Regs[isa.Zero] = 0
	r.MemDigest = c.mem.Hash()
	r.Retired = c.retiredBase + c.Stats.Retired
	return r
}

// Cycles reports the simulated cycle count so far.
func (c *Core) Cycles() uint64 { return c.cycle }

// CommittedMemory exposes the architectural memory (read-only use).
func (c *Core) CommittedMemory() *emu.Memory { return c.mem }

// EngineName reports the active reuse engine for diagnostics.
func (c *Core) EngineName() string { return c.engine.Name() }

// AuditRegisters verifies the physical-register partition invariant
// (used by tests after a run).
func (c *Core) AuditRegisters() error { return c.tracker.Audit() }
