package core

import (
	"context"
	"fmt"
	"time"
)

// DefaultBatchStride is the lockstep pacing quantum: each pacing round
// advances every live batch member until it has retired at least this
// many further instructions. Pacing in instruction space (not cycles)
// keeps the members on the same stretch of the shared program no matter
// how differently their microarchitectures perform: after a round every
// live core sits within one stride (plus a commit group) of every other,
// so the stretch of instructions and data the members touch stays
// resident in the host caches across them.
const DefaultBatchStride = 4096

// Batch steps M cores in lockstep over one shared program. The members
// are fully independent microarchitectural variants — each owns its
// ROB/LSQ rings, reuse tables, predictor, caches, stats, sampler and
// commit-time checker — so any interleaving of their cycle loops
// produces results bit-identical to running them sequentially. What the
// batch shares is the host cache residency of the instruction stream
// itself, which lockstep pacing keeps hot across members instead of
// re-streaming the whole program M times.
//
// A Batch is reusable: construct it once for a set of cores, then for
// each program Reset every core to the same *isa.Program and call Run.
// Steady-state reuse allocates nothing.
type Batch struct {
	cores  []*Core
	stride uint64
	errs   []error
	done   []bool
	walls  []time.Duration
}

// NewBatch builds a lockstep driver over cores, all of which must
// currently be loaded with the same program (and must be Reset to a
// common program before every subsequent Run). stride is the pacing
// quantum in retired instructions; 0 selects DefaultBatchStride.
func NewBatch(cores []*Core, stride uint64) (*Batch, error) {
	if len(cores) == 0 {
		return nil, fmt.Errorf("core: batch needs at least one core")
	}
	if stride == 0 {
		stride = DefaultBatchStride
	}
	for i, c := range cores {
		if c.prog != cores[0].prog {
			return nil, fmt.Errorf("core: batch member %d loaded with a different program", i)
		}
	}
	return &Batch{
		cores:  cores,
		stride: stride,
		errs:   make([]error, len(cores)),
		done:   make([]bool, len(cores)),
		walls:  make([]time.Duration, len(cores)),
	}, nil
}

// Run executes every member to completion in lockstep pacing rounds and
// returns per-core errors, indexed like the cores slice (the returned
// slice aliases the Batch's internal buffer and is valid until the next
// Run). Each member's results — Stats, Result, intervals — are
// bit-identical to what Core.RunContext would have produced for it
// alone: stepUntil pauses are invisible to the pipeline.
func (b *Batch) Run(ctx context.Context) []error {
	prog := b.cores[0].prog
	for i, c := range b.cores {
		if c.prog != prog {
			panic(fmt.Sprintf("core: batch member %d reset to a different program", i))
		}
		b.errs[i] = nil
		b.done[i] = false
		b.walls[i] = 0
	}
	remaining := len(b.cores)
	for target := b.stride; remaining > 0; target += b.stride {
		for i, c := range b.cores {
			if b.done[i] {
				continue
			}
			t0 := time.Now()
			err := c.stepUntil(ctx, target)
			b.walls[i] += time.Since(t0)
			if err != nil || c.halted {
				c.finishRun()
				b.errs[i] = err
				b.done[i] = true
				remaining--
			}
		}
	}
	return b.errs
}

// Walls reports each member's accumulated in-pipeline wall time from the
// last Run — the time its own stepUntil rounds consumed, excluding the
// other members' turns — indexed like the cores slice. The members'
// walls sum to (almost exactly) the batch's total runtime. The returned
// slice aliases the Batch's internal buffer.
func (b *Batch) Walls() []time.Duration { return b.walls }
