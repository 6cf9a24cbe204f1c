package emu

import (
	"testing"

	"mssr/internal/randprog"
)

// TestMemoryCopyFrom pins the deep-copy semantics CopyFrom provides to
// the fast-forward handoff: the copy compares equal (contents and
// digest), does not alias the source, hands the pages a smaller copy
// leaves over back to the pool zeroed, and reuses pooled pages across
// successive copies.
func TestMemoryCopyFrom(t *testing.T) {
	src := NewMemory()
	for i := uint64(0); i < 3000; i++ {
		src.Write(i*8, i*i+1)
	}
	src.Write(1<<30, 42) // a sparse far page
	dst := NewMemory()
	dst.Write(0xdead00, 7) // pre-existing contents must vanish
	dst.CopyFrom(src)
	if !dst.Equal(src) || dst.Hash() != src.Hash() || dst.Len() != src.Len() {
		t.Fatal("copy does not match source")
	}
	dst.Write(16, 999)
	if src.Read(16) == 999 {
		t.Fatal("copy aliases source pages")
	}
	// Steady state: same footprint again must come from the page pool.
	dst.CopyFrom(src)
	if !dst.Equal(src) {
		t.Fatal("second copy does not match source")
	}
	// Shrink, then grow into every page the smaller copy lacks: each
	// comes from the pool and must read zero around the one write.
	small := NewMemory()
	small.Write(8, 5)
	dst.CopyFrom(small)
	ref := NewMemory()
	ref.Write(8, 5)
	for _, a := range []uint64{PageBytes + 16, 2*PageBytes + 16, 3*PageBytes + 16, 4*PageBytes + 16, 5*PageBytes + 16, 1<<30 + 16} {
		dst.Write(a, 77)
		ref.Write(a, 77)
		base := a &^ (PageBytes - 1)
		for w := base; w < base+PageBytes; w += 8 {
			if w != a && dst.Read(w) != 0 {
				t.Fatalf("page grown after a shrink holds stale word %#x = %d", w, dst.Read(w))
			}
		}
	}
	if !dst.Equal(ref) || dst.Hash() != ref.Hash() || dst.Len() != ref.Len() {
		t.Fatal("shrunk-then-grown copy does not match a fresh memory")
	}
	allocs := testing.AllocsPerRun(10, func() {
		dst.CopyFrom(src)
		dst.CopyFrom(small)
	})
	if allocs != 0 {
		t.Errorf("steady-state CopyFrom allocates %.1f times", allocs)
	}
}

// TestSetStateResumesIdentically: exporting mid-run state from one
// emulator and installing it into another must make the second finish
// with exactly the state the first reaches.
func TestSetStateResumesIdentically(t *testing.T) {
	cfg := randprog.DefaultConfig()
	cfg.MaxDepth = 4
	cfg.MaxStmts = 8
	for seed := int64(0); seed < 8; seed++ {
		p := randprog.Generate(seed, cfg)
		a := New(p)
		a.FastForward(1<<40, nil)
		total := a.Retired

		b := New(p)
		b.FastForward(total/2, nil)
		st := b.State()
		c := New(p)
		c.SetState(&st)
		if c.PC != b.PC || c.Retired != b.Retired || c.Regs != b.Regs || !c.Mem.Equal(b.Mem) {
			t.Fatalf("seed %d: SetState did not reproduce the exported state", seed)
		}
		// State() aliases live memory; mutate the copy, not the source.
		c.FastForward(1<<40, nil)
		if c.Result() != a.Result() {
			t.Fatalf("seed %d: resumed run diverged:\nresumed: %+v\nstraight: %+v", seed, c.Result(), a.Result())
		}
	}
}

// TestFastForwardHook pins the warming seam: the hook sees every stepped
// instruction exactly once, and FastForward reports how many retired.
func TestFastForwardHook(t *testing.T) {
	p := randprog.Generate(3, randprog.DefaultConfig())
	e := New(p)
	var seen uint64
	n := e.FastForward(10, func(*StepInfo) { seen++ })
	if n != 10 || seen != 10 {
		t.Fatalf("FastForward(10) = %d, hook saw %d", n, seen)
	}
	// Running off the end stops at HALT and reports the shortfall.
	rest := e.FastForward(1<<40, func(*StepInfo) { seen++ })
	if !e.Halted {
		t.Fatal("emulator did not halt")
	}
	if seen != 10+rest || e.Retired != 10+rest {
		t.Fatalf("retired %d, hook saw %d, want both %d", e.Retired, seen, 10+rest)
	}
	// A halted emulator fast-forwards zero instructions.
	if e.FastForward(5, nil) != 0 {
		t.Fatal("halted emulator stepped")
	}
}
