package core

import (
	"mssr/internal/bpred"
	"mssr/internal/isa"
	"mssr/internal/mem"
	"mssr/internal/obs"
	"mssr/internal/rename"
	"mssr/internal/reuse"
	"mssr/internal/stats"
)

// Resettable is the reuse seam every simulator substrate implements:
// Reset restores the pristine post-construction state in place, without
// reallocating any capacity-dependent structure. Core.Reset composes
// these so a core built once for a Config can run successive programs
// (the pooling contract of internal/sim.Runner): a Reset core must be
// bit-for-bit indistinguishable from a freshly built one.
type Resettable interface {
	Reset()
}

// Compile-time check that every substrate participates in the seam.
var _ = []Resettable{
	(*bpred.Unit)(nil),
	(*mem.Hierarchy)(nil),
	(*obs.Sampler)(nil),
	(*rename.RAT)(nil),
	(*rename.Allocator)(nil),
	(*rename.Tracker)(nil),
	(*stats.Stats)(nil),
	(reuse.Engine)(nil),
}

// Reset reinitializes the core in place to run prog from scratch. Every
// substrate resets through the Resettable seam; nothing capacity-sized
// is reallocated. New routes its own state initialization through Reset,
// which is what makes the pooling contract hold by construction rather
// than by parallel bookkeeping.
func (c *Core) Reset(prog *isa.Program) {
	// The live-interval tap belongs to one run's owner: a pooled core
	// must not fire a stale hook for the next job. ResetWindow
	// (resetPipeline alone) deliberately keeps it so one hook spans all
	// sample periods of a multi-fidelity run.
	c.onInterval = nil
	c.bp.Reset()
	c.hier.Reset()
	c.resetPipeline(prog)
	c.mem.Clear()
	c.mem.Load(prog)
	if c.checker != nil {
		c.checker.Reset(prog)
	}
}

// resetPipeline is Reset minus the timing-only substrates (branch
// predictor, cache hierarchy) and minus the committed-memory and checker
// reload: it clears the pipeline, rename state, register state and
// counters. ResetWindow (internal/core fidelity.go) exposes it so a
// multi-fidelity run's sample periods keep their accumulated cache and
// predictor contents, the way a contiguous run would — and skip the
// program-image reload that the SeedFrom following every ResetWindow
// would overwrite anyway (for memory-heavy workloads that reload
// dominates the period).
func (c *Core) resetPipeline(prog *isa.Program) {
	c.prog = prog
	// The engine resets first: it releases its held physical registers
	// through the tracker, which must still be in the matching state.
	c.engine.Reset()
	c.fu.Reset(prog)
	c.rat.Reset()
	c.alloc.Reset()
	c.tracker.Reset()
	c.Stats.Reset()

	for i := range c.prf {
		c.prf[i] = 0
	}
	for i := range c.prfReady {
		c.prfReady[i] = i < isa.NumArchRegs // initial architectural mappings
	}
	c.headIdx, c.count = 0, 0
	c.headSeq, c.nextSeq = 1, 1
	c.fseq, c.lastRedirectSeq = 0, 0
	c.checkpointsInFlight = 0
	c.renameBlockedUntil = 0
	c.fetchQ.Clear()
	c.verifQ.Clear()
	c.iqs.reset()
	c.mems.reset()
	c.wheel.reset()
	c.loadQ.Clear()
	c.storeQ.Clear()
	clear(c.storeExec)
	c.storeExecCount = 0
	for i := range c.squashDests {
		c.squashDests[i] = false
	}
	c.suspendCommits = 0
	c.sampleAt = ^uint64(0)
	if c.sampler != nil {
		c.sampler.Reset()
		c.sampleAt = c.cfg.SampleInterval
	}
	c.cycle = 0
	c.halted = false
	c.retiredBase = 0
}
