package core

import (
	"context"
	"fmt"

	"mssr/internal/emu"
	"mssr/internal/isa"
	"mssr/internal/stats"
)

// This file is the detailed-core half of the multi-fidelity contract: a
// freshly Reset core can be seeded with an architectural state exported by
// the functional emulator (emu.ArchState) and run a bounded detailed
// window starting mid-program, optionally after the emulator warmed the
// core's caches and branch predictor during the functional skip. The
// orchestration lives in internal/sim; these are the mechanisms.

// SeedFrom installs an architectural state exported by the functional
// emulator into a freshly Reset core, so the next Run starts mid-program
// at st.PC instead of at the program entry. It relies on the RAT's
// identity initial mapping (arch reg i -> preg i): writing the low
// NumArchRegs physical registers is exactly an architectural register
// write. The committed memory is deep-copied from st (pooled pages, no
// steady-state allocation) and the private lockstep checker, when
// configured, is moved to the same point so commit-time checking keeps
// working inside the window.
//
// The core must be at cycle 0 with nothing retired (i.e. just Reset or
// ResetWindow for the same program st was produced from); SeedFrom
// panics otherwise.
func (c *Core) SeedFrom(st *emu.ArchState) {
	if c.cycle != 0 || c.Stats.Retired != 0 {
		panic(fmt.Sprintf("core: SeedFrom on a running core (cycle %d, %d retired)", c.cycle, c.Stats.Retired))
	}
	for i := 0; i < isa.NumArchRegs; i++ {
		c.prf[i] = st.Regs[i]
	}
	c.prf[isa.Zero] = 0
	c.mem.CopyFrom(st.Mem)
	c.fu.Redirect(st.PC)
	c.retiredBase = st.Retired
	c.halted = st.Halted
	if c.checker != nil {
		c.checker.SetState(st)
	}
}

// WarmStep observes one functionally executed instruction and applies its
// side effects to the core's timing-only structures: demand accesses prime
// the cache hierarchy and control flow trains the branch predictor the
// same way commit would on a correctly predicted path (snapshot-then-train
// for conditional branches, indirect-target training and RAS push/pop for
// jumps). Pass it as the hook to emu.Emulator.FastForward to fast-forward
// with warming; it performs no architectural work of its own. The info
// pointer is only read during the call, matching FastForward's reuse
// contract.
func (c *Core) WarmStep(info *emu.StepInfo) {
	switch info.Instr.Class() {
	case isa.ClassLoad, isa.ClassStore:
		c.hier.Access(info.Outcome.MemAddr)
	case isa.ClassBranch:
		s := c.bp.Snapshot()
		c.bp.Train(info.PC, s, info.Outcome.Taken)
		c.bp.ShiftHistory(info.Outcome.Taken)
	case isa.ClassJump:
		if info.Instr.Rd == isa.RA {
			c.bp.PushRAS(info.PC + isa.InstrBytes)
		}
	case isa.ClassJumpR:
		if info.Instr.Rd == isa.Zero && info.Instr.Rs1 == isa.RA {
			c.bp.PopRAS()
			return
		}
		c.bp.TrainIndirect(info.PC, info.NextPC)
		if info.Instr.Rd == isa.RA {
			c.bp.PushRAS(info.PC + isa.InstrBytes)
		}
	}
}

// ResetWindow prepares the core for the next sample period of a
// multi-fidelity run: like Reset, but the timing-only state — cache
// hierarchy contents and branch-predictor tables — survives, the way it
// would across a contiguous detailed run. Without this each period would
// restart with a cold L2 that one skip's worth of warming cannot refill,
// and memory-bound windows would read far slower than the regions they
// sample. The preserved hit/miss counters are re-baselined by the
// EndWarmup that precedes every window.
//
// The committed memory and the lockstep checker are left stale: the
// SeedFrom that must follow overwrites both with the emulator's state,
// so reloading the program image here would be pure waste (for
// memory-heavy workloads the reload would dominate the period).
func (c *Core) ResetWindow(prog *isa.Program) { c.resetPipeline(prog) }

// EndWarmup draws the statistics baseline after functional warming: the
// cache hierarchy keeps every line WarmStep primed but its hit/miss/
// eviction/DRAM counters are zeroed, so the detailed window's measured
// memory behaviour excludes warm-up traffic.
func (c *Core) EndWarmup() {
	c.hier.ResetCounters()
}

// RunWindow runs one detailed sample window with a measurement-excluded
// detailed-warmup prefix: it first retires warmup instructions in full
// detail (letting the pipeline, MSHRs and reuse structures reach steady
// state), snapshots the counters into pre, then retires the window
// (window == 0 means run to completion) and seals the run exactly like
// RunContext, so one Reset(+SeedFrom) pairs with one RunWindow. win
// receives the measured window alone — the period's counters minus the
// prefix snapshot — which is what makes short sample windows unbiased by
// their cold-start transient. Pausing at a retire target is
// cycle-identical to an uninterrupted run (see stepUntil), which is what
// makes a fast-forward-then-detail run comparable to the tail of a
// full-detail one.
func (c *Core) RunWindow(ctx context.Context, warmup, window uint64, pre, win *stats.Stats) error {
	if warmup > 0 && !c.halted {
		if err := c.stepUntil(ctx, c.Stats.Retired+warmup); err != nil {
			c.finishRun()
			win.Reset() // nothing measured
			return err
		}
	}
	c.syncMemStats()
	pre.CopyFrom(c.Stats)
	pre.Cycles = c.cycle
	target := ^uint64(0)
	if window > 0 {
		target = c.Stats.Retired + window
	}
	err := c.stepUntil(ctx, target)
	c.finishRun()
	win.CopyFrom(c.Stats)
	win.Sub(pre)
	return err
}

// Halted reports whether the program's HALT has committed (or the core was
// seeded from an already-halted state).
func (c *Core) Halted() bool { return c.halted }
