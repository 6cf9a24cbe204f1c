package emu

import (
	"errors"
	"fmt"

	"mssr/internal/isa"
)

// ErrInstructionLimit is returned by Run when the program has not halted
// within the allowed number of instructions.
var ErrInstructionLimit = errors.New("emu: instruction limit exceeded")

// Emulator executes a program at architectural (ISA) level, one instruction
// per Step, with no timing. It is the semantic oracle for the repository.
type Emulator struct {
	Prog *isa.Program
	Regs [isa.NumArchRegs]uint64
	Mem  *Memory
	PC   uint64
	// Halted reports that a HALT instruction has retired.
	Halted bool
	// Retired counts architecturally executed instructions.
	Retired uint64

	// scratch is the record Run and FastForward step into: one StepInfo
	// reused for every instruction, so neither loop copies or allocates
	// one per step.
	scratch StepInfo

	// image is imageOf's load image, the memory checkpoints are encoded
	// against (loadImage).
	image   *Memory
	imageOf *isa.Program
}

// New returns an emulator with the program's data segments loaded and the
// PC at the program base.
func New(p *isa.Program) *Emulator {
	e := &Emulator{Prog: p, Mem: NewMemory(), PC: p.Base}
	e.Mem.Load(p)
	return e
}

// Reset reinitializes the emulator in place to run p from scratch,
// keeping the memory's pooled page storage.
func (e *Emulator) Reset(p *isa.Program) {
	e.Prog = p
	e.Regs = [isa.NumArchRegs]uint64{}
	e.Mem.Clear()
	e.Mem.Load(p)
	e.PC = p.Base
	e.Halted = false
	e.Retired = 0
}

// StepInfo describes one architecturally executed instruction; the timing
// simulators' built-in retirement checkers compare against it.
type StepInfo struct {
	PC      uint64
	Instr   isa.Instruction
	Outcome isa.Outcome
	NextPC  uint64
}

// Step executes the instruction at the current PC. Calling Step on a halted
// emulator is a no-op that returns the final state of the HALT.
func (e *Emulator) Step() StepInfo {
	if e.Halted {
		return StepInfo{PC: e.PC, Instr: isa.Instruction{Op: isa.HALT}, NextPC: e.PC}
	}
	var info StepInfo
	e.step(&info)
	return info
}

// step executes the instruction at the current PC of a running emulator,
// writing its record into *info in place: the instruction is read through
// a pointer into the program and evaluated straight into info.Outcome, so
// the per-instruction cost carries no struct copies beyond info.Instr.
// A PC outside the program panics (in MustAt): it is a program bug.
func (e *Emulator) step(info *StepInfo) {
	in := e.Prog.MustAt(e.PC)
	var rs1v, rs2v uint64
	// Sources occupy Rs1 first (isa.Instruction.Src); reading the fields
	// directly keeps the per-instruction cost a pair of loads.
	switch in.NumSources() {
	case 2:
		rs2v = e.Regs[in.Rs2]
		fallthrough
	case 1:
		rs1v = e.Regs[in.Rs1]
	}
	out := &info.Outcome
	isa.Evaluate(in, e.PC, rs1v, rs2v, out)
	switch in.Op {
	case isa.LD:
		out.Result = e.Mem.Read(out.MemAddr)
	case isa.ST:
		e.Mem.Write(out.MemAddr, out.Result)
	}
	if in.HasDest() {
		e.Regs[in.Rd] = out.Result
	}
	info.PC = e.PC
	info.Instr = *in
	switch {
	case out.Halt:
		e.Halted = true
	case out.Taken:
		e.PC = out.Target
	default:
		e.PC += isa.InstrBytes
	}
	info.NextPC = e.PC
	e.Retired++
}

// Run executes until HALT or until maxInstrs instructions have retired,
// returning ErrInstructionLimit in the latter case.
func (e *Emulator) Run(maxInstrs uint64) error {
	for !e.Halted {
		if e.Retired >= maxInstrs {
			return fmt.Errorf("%w (%d instructions, PC=0x%x)", ErrInstructionLimit, maxInstrs, e.PC)
		}
		e.step(&e.scratch)
	}
	return nil
}

// ArchState is an exported architectural machine state: everything a
// consumer needs to resume execution of the same program mid-stream. It is
// the handoff format between functional fast-forward and a detailed core
// window (Core.SeedFrom).
type ArchState struct {
	Regs    [isa.NumArchRegs]uint64
	Mem     *Memory
	PC      uint64
	Retired uint64
	Halted  bool
}

// State exports the current architectural state. Mem aliases the
// emulator's live memory — no copy is made, so a consumer that keeps the
// state across further emulator steps must deep-copy it (Memory.CopyFrom
// or Memory.Clone).
func (e *Emulator) State() ArchState {
	return ArchState{Regs: e.Regs, Mem: e.Mem, PC: e.PC, Retired: e.Retired, Halted: e.Halted}
}

// SetState restores a previously exported architectural state, deep-copying
// the memory image into the emulator's pooled pages. The loaded program is
// unchanged; st must describe a point in the same program.
func (e *Emulator) SetState(st *ArchState) {
	e.Regs = st.Regs
	e.Mem.CopyFrom(st.Mem)
	e.PC = st.PC
	e.Retired = st.Retired
	e.Halted = st.Halted
}

// FastForward architecturally executes up to n instructions, invoking hook
// (when non-nil) after each one — the seam used for cache and
// branch-predictor warming during functional skip. The StepInfo the hook
// receives is only valid for the duration of the call; a hook that keeps
// it must copy. FastForward returns the number actually retired, which is
// less than n only if the program halts first.
func (e *Emulator) FastForward(n uint64, hook func(*StepInfo)) uint64 {
	info := &e.scratch
	var done uint64
	for done < n && !e.Halted {
		e.step(info)
		if hook != nil {
			hook(info)
		}
		done++
	}
	return done
}

// Result is the final architectural state in comparable form.
type Result struct {
	Regs      [isa.NumArchRegs]uint64
	MemDigest uint64
	Retired   uint64
}

// Result captures the current architectural state.
func (e *Emulator) Result() Result {
	return Result{Regs: e.Regs, MemDigest: e.Mem.Hash(), Retired: e.Retired}
}

// RunProgram is a convenience wrapper: execute p to completion and return
// the final state.
func RunProgram(p *isa.Program, maxInstrs uint64) (Result, error) {
	e := New(p)
	if err := e.Run(maxInstrs); err != nil {
		return Result{}, err
	}
	return e.Result(), nil
}
