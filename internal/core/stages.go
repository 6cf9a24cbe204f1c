package core

import (
	"fmt"

	"mssr/internal/frontend"
	"mssr/internal/isa"
	"mssr/internal/rename"
	"mssr/internal/reuse"
	"mssr/internal/trace"
)

// fetch forms up to BlocksPerCycle prediction blocks and enqueues their
// instructions toward rename, feeding each block to the reuse engine's
// fetch-side reconvergence detection. The frontend writes each fetched
// instruction straight into its fetch-queue slot (NextBlockInto), so the
// hottest producer loop in the machine copies nothing.
func (c *Core) fetch() {
	for b := 0; b < c.cfg.BlocksPerCycle; b++ {
		if c.fetchQ.Len()+isa.FetchBlockInstrs > c.cfg.FetchQueue {
			return
		}
		firstFseq := c.fseq + 1
		blk, n, ok := c.fu.NextBlockInto(c.fetchSlot)
		if !ok {
			return
		}
		if c.tracer != nil {
			for abs := c.fetchQ.Tail() - uint64(n); abs < c.fetchQ.Tail(); abs++ {
				fe := c.fetchQ.AtAbs(abs)
				c.tracer.Emit(trace.Event{Cycle: c.cycle, Kind: trace.KindFetch, Fseq: fe.fseq, PC: fe.fi.PC, Instr: fe.fi.Instr})
			}
		}
		before := c.Stats.Reconvergences
		c.engine.ObserveBlock(blk.StartPC, blk.EndPC, firstFseq, n, c.lastRedirectSeq)
		if c.tracer != nil && c.Stats.Reconvergences > before {
			c.tracer.Emit(trace.Event{Cycle: c.cycle, Kind: trace.KindReconverge, PC: blk.StartPC,
				Note: fmt.Sprintf("block %#x..%#x", blk.StartPC, blk.EndPC)})
		}
	}
}

// nextFetchSlot is the destination callback fetch hands the frontend: it
// claims the next fetch-queue slot, stamps the fetch sequence and the
// frontend-delay readiness cycle, and exposes the embedded FetchedInstr
// for the frontend to fill in place.
func (c *Core) nextFetchSlot() *frontend.FetchedInstr {
	c.fseq++
	fe := c.fetchQ.PushSlot()
	fe.fseq = c.fseq
	fe.readyAt = c.cycle + c.cfg.FrontendDelay
	return &fe.fi
}

// renameStage renames and dispatches up to RenameWidth instructions,
// performing the squash-reuse test for each one in program order.
func (c *Core) renameStage() {
	if c.cycle < c.renameBlockedUntil {
		return // RAT recovery (rollback walk) in progress
	}
	riTests := 0
	for n := 0; n < c.cfg.RenameWidth; n++ {
		if c.fetchQ.Len() == 0 || c.fetchQ.Front().readyAt > c.cycle {
			break
		}
		if c.count == c.cfg.ROBSize {
			break
		}
		// Pointer into the ring slot: valid through this iteration because
		// rename never pushes to the fetch queue (fetch runs later in the
		// cycle) and PopFront leaves the slot contents in place.
		fe := c.fetchQ.Front()
		in := fe.fi.Instr
		cls := in.Class()

		// Structural hazards: verify every resource this instruction will
		// take before consuming the reuse-engine walk state.
		switch cls {
		case isa.ClassLoad:
			if c.loadQ.Len() >= c.cfg.LoadQueue || c.mems.Len() >= c.cfg.MemIQSize {
				break
			}
		case isa.ClassStore:
			if c.storeQ.Len() >= c.cfg.StoreQueue || c.mems.Len() >= c.cfg.MemIQSize {
				break
			}
		case isa.ClassBranch, isa.ClassJumpR:
			if c.iqs.Len() >= c.cfg.IQSize {
				break
			}
		case isa.ClassNop, isa.ClassHalt, isa.ClassJump:
			// No issue resources needed.
		default:
			if c.iqs.Len() >= c.cfg.IQSize {
				break
			}
		}
		if in.HasDest() && c.tracker.FreeCount() == 0 {
			// Free-list pressure: reclaim squash-reuse reservations
			// (§3.3.2 condition 5), then stall if still dry.
			for c.tracker.FreeCount() == 0 && c.engine.Reclaim() {
			}
			if c.tracker.FreeCount() == 0 {
				break
			}
		}

		// Commit to renaming this instruction. The ROB slot still holds a
		// previous occupant's fields, so every field is stored explicitly —
		// field-by-field rather than via a struct literal, which would
		// build a 224-byte temporary and duffcopy it in (the hottest copy
		// in the profile before this refactor).
		c.fetchQ.DropFront()
		seq := c.nextSeq
		c.nextSeq++
		pos := (c.headIdx + c.count) & c.robMask
		c.count++
		e := &c.rob[pos]
		e.seq = seq
		e.fseq = fe.fseq
		e.pc = fe.fi.PC
		e.instr = in
		e.predTaken = fe.fi.PredTaken
		e.predNext = fe.fi.PredNextPC
		e.snapshot = fe.fi.Snapshot
		e.isCall = fe.fi.IsCall
		e.isReturn = fe.fi.IsReturn
		e.hasDest = false
		e.destPreg = rename.NoPreg
		e.destGen = rename.NullRGID
		e.oldMap = rename.Mapping{}
		e.srcPregs[0], e.srcPregs[1] = 0, 0
		e.srcGens[0], e.srcGens[1] = 0, 0
		e.nsrc = in.NumSources()
		e.inIQ, e.issued, e.executed, e.completed = false, false, false, false
		e.doneAt = 0
		e.reused, e.verifPending, e.verifOK = false, false, false
		e.mispredicted, e.hasCheckpoint = false, false
		e.result, e.taken, e.nextPC = 0, false, 0
		e.memAddr, e.memValue, e.fwdFrom = 0, 0, 0
		e.halt = false
		e.lsqAbs, e.peerBound = 0, 0
		// Source 0 is always Rs1 and source 1 always Rs2; reading the
		// fields directly avoids re-deriving the source count per operand
		// the way Instruction.Src does.
		if e.nsrc > 0 {
			m := c.rat.Get(in.Rs1)
			e.srcPregs[0], e.srcGens[0] = m.Preg, m.Gen
			if e.nsrc > 1 {
				m := c.rat.Get(in.Rs2)
				e.srcPregs[1], e.srcGens[1] = m.Preg, m.Gen
			}
		}
		c.Stats.Fetched++

		var grant reuse.Grant
		var granted bool
		// Serialized RI table access (§3.7.3): beyond the per-cycle test
		// budget, instructions rename without an integration attempt.
		riLimited := c.cfg.Reuse == ReuseRI && c.cfg.RITestsPerCycle > 0 &&
			riTests >= c.cfg.RITestsPerCycle
		if !riLimited {
			if c.cfg.Reuse == ReuseRI {
				// A non-reusable instruction still consumes a serialized
				// table-port slot, exactly as before the call was gated.
				riTests++
			}
			if c.tryAll || (!c.tryNever && reuse.Reusable(in)) {
				grant, granted = c.engine.TryReuse(reuse.Request{
					Seq:      fe.fseq,
					PC:       e.pc,
					Instr:    in,
					SrcGens:  e.srcGens,
					SrcPregs: e.srcPregs,
				})
			}
		}
		if granted && !in.HasDest() {
			panic(fmt.Sprintf("core: engine granted reuse for %v without destination", in))
		}

		if in.HasDest() {
			e.hasDest = true
			switch {
			case granted && grant.ByValue:
				// Value-carrying grant (DIR): allocate a fresh register
				// and deposit the stored result.
				p, ok := c.tracker.Alloc()
				if !ok {
					panic("core: free list empty after pressure check")
				}
				c.prf[p] = grant.Value
				c.prfReady[p] = true
				c.wake(p)
				e.destPreg = p
				e.destGen = c.alloc.Alloc(in.Rd)
				e.result = grant.Value
				e.reused = true
				e.executed = true
				e.completed = true
			case granted:
				p := grant.DestPreg
				// Re-adopt the held register: it becomes this
				// instruction's destination and the engine's reservation
				// is consumed.
				c.tracker.Revive(p)
				c.tracker.Release(p)
				if !c.prfReady[p] {
					panic(fmt.Sprintf("core: granted p%d has no value", p))
				}
				e.destPreg = p
				e.destGen = grant.DestGen
				if e.destGen == rename.NullRGID {
					e.destGen = c.alloc.Alloc(in.Rd)
				}
				e.result = c.prf[p]
				e.reused = true
				e.executed = true
				e.completed = true
			default:
				p, ok := c.tracker.Alloc()
				if !ok {
					panic("core: free list empty after pressure check")
				}
				c.prfReady[p] = false
				e.destPreg = p
				e.destGen = c.alloc.Alloc(in.Rd)
			}
			e.oldMap = c.rat.Set(in.Rd, rename.Mapping{Preg: e.destPreg, Gen: e.destGen})
		}

		switch cls {
		case isa.ClassNop:
			e.executed, e.completed = true, true
		case isa.ClassHalt:
			e.executed, e.completed, e.halt = true, true, true
			e.nextPC = e.pc
		case isa.ClassJump:
			// JAL: target is static and the link value is known here.
			e.executed, e.completed = true, true
			e.taken, e.nextPC = true, in.Target
			if e.hasDest {
				e.result = e.pc + isa.InstrBytes
				c.prf[e.destPreg] = e.result
				c.prfReady[e.destPreg] = true
				c.wake(e.destPreg)
			}
		case isa.ClassLoad:
			e.lsqAbs = c.loadQ.Push(lsqEntry{seq: seq})
			e.peerBound = c.storeQ.Tail()
			if e.reused {
				// Reused load: consumers are unblocked now, but the value
				// must be verified by re-execution before commit (§3.8.3).
				e.memAddr = grant.MemAddr
				e.memValue = e.result
				lq := c.loadQ.AtAbs(e.lsqAbs)
				lq.addr = grant.MemAddr
				lq.value = e.result
				lq.executed = true
				lq.reused = true
				e.completed = false
				e.verifPending = true
				c.verifQ.Push(seq)
			} else {
				c.mems.insert(seq, e.srcPregs, uint8(e.nsrc), false, c.prfReady)
				e.inIQ = true
			}
		case isa.ClassStore:
			e.lsqAbs = c.storeQ.Push(lsqEntry{seq: seq})
			e.peerBound = c.loadQ.Tail()
			c.mems.insert(seq, e.srcPregs, uint8(e.nsrc), false, c.prfReady)
			e.inIQ = true
		case isa.ClassBranch, isa.ClassJumpR:
			if c.checkpointsInFlight < c.cfg.RATCheckpoints {
				e.hasCheckpoint = true
				c.checkpointsInFlight++
			}
			c.iqs.insert(seq, e.srcPregs, uint8(e.nsrc), true, c.prfReady)
			e.inIQ = true
		default:
			if !e.reused {
				c.iqs.insert(seq, e.srcPregs, uint8(e.nsrc), false, c.prfReady)
				e.inIQ = true
			}
		}
		if c.tracer != nil {
			if e.reused {
				c.emitTrace(trace.KindReuse, e, "")
			} else {
				c.emitTrace(trace.KindRename, e, "")
			}
		}
	}
	c.maybeRGIDReset()
}

// issue selects ready instructions within the cycle's functional-unit
// budgets, executes them, and schedules their completion.
//
// Each reservation station keeps its operand-ready entries on a
// seq-ordered ready list (see sched), so issue walks exactly the
// issuable set instead of scanning every resident entry. The walk
// order is the order entries occupied the former slice, and port
// budgets are spent along it, so selection is bit-identical to the
// scan it replaces.
func (c *Core) issue() {
	alu, bru, lsu := c.cfg.ALUs, c.cfg.BRUs, c.cfg.LSUs

	// Verification accesses for reused loads share the LSU ports.
	for c.verifQ.Len() > 0 && lsu > 0 {
		seq := c.verifQ.PopFront()
		lsu--
		e := c.entry(seq)
		val, _, lat := c.readForLoad(e, e.memAddr)
		e.verifOK = val == e.result
		e.doneAt = c.cycle + 1 + lat
		e.issued = true
		c.schedule(e)
	}

	// Memory reservation station: loads and stores on the LSU ports.
	// execute() never mutates station residency or prfReady, so saving
	// the next link before removal keeps the walk safe.
	for i := c.mems.headRdy; i >= 0 && lsu > 0; {
		next := c.mems.pool[i].rdyNext
		seq := c.mems.pool[i].seq
		lsu--
		c.mems.remove(i)
		c.execute(c.entry(seq))
		i = next
	}

	// ALU/BRU reservation station: two port classes share one station,
	// so the walk continues while either budget remains and skips ready
	// entries whose port class is exhausted — exactly the old scan.
	for i := c.iqs.headRdy; i >= 0 && (alu > 0 || bru > 0); {
		e := &c.iqs.pool[i]
		next := e.rdyNext
		if e.bru {
			if bru > 0 {
				bru--
				seq := e.seq
				c.iqs.remove(i)
				c.execute(c.entry(seq))
			}
		} else if alu > 0 {
			alu--
			seq := e.seq
			c.iqs.remove(i)
			c.execute(c.entry(seq))
		}
		i = next
	}
}

// wake propagates the write of physical register p to both stations:
// entries whose last unready source was p move onto the ready lists.
func (c *Core) wake(p rename.PhysReg) {
	c.iqs.wake(p)
	c.mems.wake(p)
}

// schedule books e's completion on the wheel. doneAt is clamped forward
// to the next cycle: writeback has already drained the current cycle's
// bucket by the time issue runs.
func (c *Core) schedule(e *robEntry) {
	at := e.doneAt
	if at <= c.cycle {
		at = c.cycle + 1
	}
	c.wheel.add(c.cycle, at, e.seq, e.fseq)
}

// execute computes an instruction's architectural outcome and schedules
// its writeback.
func (c *Core) execute(e *robEntry) {
	var rs1v, rs2v uint64
	if e.nsrc > 0 {
		rs1v = c.prf[e.srcPregs[0]]
	}
	if e.nsrc > 1 {
		rs2v = c.prf[e.srcPregs[1]]
	}
	var out isa.Outcome
	isa.Evaluate(&e.instr, e.pc, rs1v, rs2v, &out)
	switch e.instr.Class() {
	case isa.ClassMul:
		e.result = out.Result
		e.doneAt = c.cycle + c.cfg.MulLat
	case isa.ClassDiv:
		e.result = out.Result
		e.doneAt = c.cycle + c.cfg.DivLat
	case isa.ClassBranch:
		e.taken = out.Taken
		if out.Taken {
			e.nextPC = out.Target
		} else {
			e.nextPC = e.pc + isa.InstrBytes
		}
		e.doneAt = c.cycle + 1
	case isa.ClassJumpR:
		e.taken = true
		e.nextPC = out.Target
		e.result = out.Result
		e.doneAt = c.cycle + 1
	case isa.ClassLoad:
		e.memAddr = out.MemAddr
		val, fwd, lat := c.readForLoad(e, e.memAddr)
		e.result = val
		e.memValue = val
		e.fwdFrom = fwd
		e.doneAt = c.cycle + 1 + lat
		lq := c.loadQ.AtAbs(e.lsqAbs)
		lq.addr = e.memAddr
		lq.value = val
		lq.fwdFrom = fwd
		lq.executed = true
	case isa.ClassStore:
		e.memAddr = out.MemAddr
		e.memValue = out.Result
		e.doneAt = c.cycle + 1
	default:
		e.result = out.Result
		e.doneAt = c.cycle + 1
	}
	e.issued = true
	e.inIQ = false
	c.schedule(e)
	c.emitTrace(trace.KindIssue, e, "")
}

// readForLoad resolves a load's value: store-to-load forwarding from the
// youngest older executed store with a matching address, else committed
// memory through the cache hierarchy. It returns the value, the forwarding
// store's seq (0 = memory), and the access latency.
//
// Older stores are exactly the absolute range [storeQ.Base(), e.peerBound):
// peerBound is the store-queue tail captured when the load renamed, and
// stores below Base have committed to memory already. The scan walks that
// window youngest-first, testing the executed bitmap before touching the
// entry, and skips entirely when no store in the machine has executed.
func (c *Core) readForLoad(e *robEntry, addr uint64) (uint64, uint64, uint64) {
	a := addr &^ 7
	if c.storeExecCount > 0 {
		base := c.storeQ.Base()
		for abs := e.peerBound; abs > base; {
			abs--
			if !c.storeExecuted(abs) {
				continue
			}
			s := c.storeQ.AtAbs(abs)
			if s.addr&^7 == a {
				return s.value, s.seq, c.cfg.FwdLat
			}
		}
	}
	return c.mem.Read(a), 0, c.hier.Access(a)
}

// writeback retires execution results into the PRF, resolves branches
// (flushing on mispredictions), performs store-side violation checks and
// completes reused-load verification.
func (c *Core) writeback() {
	// Every instruction finishing this cycle sits in exactly one wheel
	// bucket: writeback drains all ready completions each cycle and issue
	// (which runs after writeback) schedules no earlier than cycle+1, so
	// nothing ready can hide in another bucket. Draining oldest-first
	// reproduces the former oldest-finished re-scan ordering; squashed
	// leftovers are filtered by the ROB-window and fseq checks, which is
	// what lets mid-writeback flushes leave the wheel untouched.
	bucket := c.wheel.take(c.cycle)
	if len(bucket) == 0 {
		return
	}
	sortBySeq(bucket)
	for _, de := range bucket {
		seq := de.seq
		if seq < c.headSeq || seq >= c.headSeq+uint64(c.count) {
			continue // squashed (or a recycled seq not yet reassigned)
		}
		e := c.entry(seq)
		if e.fseq != de.fseq {
			continue // squashed and the rename seq was recycled
		}

		if e.verifPending {
			// Reused-load verification result (§3.8.3).
			c.Stats.LoadVerifications++
			if e.verifOK {
				e.verifPending = false
				e.completed = true
			} else {
				c.violationFlush(seq, true)
			}
			continue
		}

		if e.hasDest {
			c.prf[e.destPreg] = e.result
			c.prfReady[e.destPreg] = true
			c.wake(e.destPreg)
		}
		e.executed = true
		e.completed = true
		c.emitTrace(trace.KindWriteback, e, "")

		switch e.instr.Class() {
		case isa.ClassStore:
			s := c.storeQ.AtAbs(e.lsqAbs)
			s.addr = e.memAddr
			s.value = e.memValue
			s.executed = true
			c.markStoreExecuted(e.lsqAbs)
			c.engine.NoteStore(e.memAddr)
			if victim, ok := c.storeViolationScan(e); ok {
				c.violationFlush(victim, false)
			}
		case isa.ClassBranch, isa.ClassJumpR:
			if e.nextPC != e.predNext {
				e.mispredicted = true
				c.mispredictFlush(e)
			}
		}
	}
}

// storeViolationScan implements the store-side load-queue search: a
// younger executed load with a matching address that did not get its data
// from this store (or a younger one) read stale data. Younger loads are
// exactly the absolute range [st.peerBound, loadQ.Tail()): peerBound is
// the load-queue tail captured when the store renamed, so the scan never
// touches the older loads the previous full-queue walk had to skip over.
func (c *Core) storeViolationScan(st *robEntry) (uint64, bool) {
	a := st.memAddr &^ 7
	abs := st.peerBound
	if b := c.loadQ.Base(); abs < b {
		abs = b
	}
	for tail := c.loadQ.Tail(); abs < tail; abs++ {
		l := c.loadQ.AtAbs(abs)
		if !l.executed {
			continue
		}
		if l.addr&^7 == a && l.fwdFrom < st.seq {
			return l.seq, true
		}
	}
	return 0, false
}

// commit retires up to CommitWidth completed instructions from the ROB
// head, writing stores to memory, training the predictors, freeing
// previous mappings and running the lockstep checker.
func (c *Core) commit() {
	for n := 0; n < c.cfg.CommitWidth && c.count > 0; n++ {
		e := &c.rob[c.headIdx]
		if !e.completed {
			return
		}
		if c.checker != nil {
			c.debugCheck(e)
		}
		switch e.instr.Class() {
		case isa.ClassBranch:
			c.Stats.Branches++
			if e.mispredicted {
				c.Stats.BranchMispredicts++
			}
			c.bp.Train(e.pc, e.snapshot, e.taken)
		case isa.ClassJumpR:
			if e.mispredicted {
				c.Stats.JumpMispredicts++
			}
			if !e.isReturn {
				c.bp.TrainIndirect(e.pc, e.nextPC)
			}
		case isa.ClassLoad:
			if c.loadQ.Len() == 0 || c.loadQ.Front().seq != e.seq {
				panic("core: load queue out of sync at commit")
			}
			c.loadQ.DropFront()
		case isa.ClassStore:
			if c.storeQ.Len() == 0 || c.storeQ.Front().seq != e.seq {
				panic("core: store queue out of sync at commit")
			}
			c.mem.Write(e.memAddr, e.memValue)
			c.hier.Access(e.memAddr)
			c.unmarkStoreExecuted(c.storeQ.Base())
			c.storeQ.DropFront()
		}
		if e.hasCheckpoint {
			c.checkpointsInFlight--
		}
		if e.hasDest {
			// The previous mapping of the destination register is now
			// unreachable; free it (unless a squash log holds it).
			c.tracker.Unlive(e.oldMap.Preg)
		}
		c.emitTrace(trace.KindCommit, e, "")
		c.Stats.Retired++
		if c.suspendCommits > 0 {
			c.suspendCommits--
		}
		halt := e.halt
		c.headIdx = (c.headIdx + 1) & c.robMask
		c.count--
		c.headSeq++
		if halt {
			c.halted = true
			return
		}
	}
}

// debugCheck steps the core's own emulator over one committing
// instruction and panics if the two disagree — the repository's golden
// invariant that squash reuse never changes architectural behaviour. A
// core checks the same way alone and as a batch member.
func (c *Core) debugCheck(e *robEntry) {
	info := c.checker.Step()
	var destWant uint64
	if e.hasDest {
		destWant = c.checker.Regs[e.instr.Rd]
	}
	fail := func(what string, got, want interface{}) {
		panic(fmt.Sprintf("core: lockstep divergence at pc=0x%x seq=%d (%v): %s = %v, emulator has %v",
			e.pc, e.seq, e.instr, what, got, want))
	}
	if info.PC != e.pc {
		fail("pc", fmt.Sprintf("0x%x", e.pc), fmt.Sprintf("0x%x", info.PC))
	}
	if e.hasDest {
		if e.result != destWant {
			fail("result", e.result, destWant)
		}
	}
	if e.instr.IsStore() {
		if e.memAddr != info.Outcome.MemAddr || e.memValue != info.Outcome.Result {
			fail("store", fmt.Sprintf("[0x%x]=%d", e.memAddr, e.memValue),
				fmt.Sprintf("[0x%x]=%d", info.Outcome.MemAddr, info.Outcome.Result))
		}
	}
	if e.instr.IsControl() && !e.halt {
		if e.nextPC != info.NextPC {
			fail("nextPC", fmt.Sprintf("0x%x", e.nextPC), fmt.Sprintf("0x%x", info.NextPC))
		}
	}
}
