package core

import (
	"context"
	"testing"

	"mssr/internal/emu"
	"mssr/internal/isa"
	"mssr/internal/randprog"
	"mssr/internal/stats"
	"mssr/internal/workloads"
)

// runSeeded fast-forwards p on the functional emulator by ff instructions
// (optionally warming c's hierarchy/predictor), seeds a fresh detailed
// core, and runs it to completion. It returns false when the program
// halted inside the skip (nothing detailed to run).
func runSeeded(t *testing.T, name string, p *isa.Program, cfg Config, ff uint64, warm bool) bool {
	t.Helper()
	cfg.DebugCheck = true
	cfg.MaxCycles = 50_000_000
	c := New(p, cfg)
	em := emu.New(p)
	var hook func(*emu.StepInfo)
	if warm {
		hook = c.WarmStep
	}
	em.FastForward(ff, hook)
	if em.Halted {
		return false
	}
	c.EndWarmup()
	st := em.State()
	c.SeedFrom(&st)
	if err := c.RunContext(context.Background()); err != nil {
		t.Fatalf("%s/%s: seeded run: %v", p.Name, name, err)
	}
	want, err := emu.RunProgram(p, 500_000_000)
	if err != nil {
		t.Fatalf("%s: emulator: %v", p.Name, err)
	}
	got := c.Result()
	if got != want {
		t.Fatalf("%s/%s: ff=%d warm=%v: architectural divergence:\nseeded core: %+v\nemu:         %+v",
			p.Name, name, ff, warm, got, want)
	}
	if err := c.AuditRegisters(); err != nil {
		t.Fatalf("%s/%s: register audit: %v", p.Name, name, err)
	}
	return true
}

// TestFastForwardSeedEquivalence is the multi-fidelity counterpart of
// TestRandomProgramsEquivalence: fast-forwarding N instructions
// functionally and then running the detailed core to completion must
// reproduce the full-program architectural state and retired-instruction
// count bit for bit, under every reuse engine, with the lockstep checker
// armed across the seam. This is the property that makes an ff-only spec
// (Spec.FastForward > 0, DetailedWindow == 0) an exact run.
func TestFastForwardSeedEquivalence(t *testing.T) {
	seeds := int64(6)
	if testing.Short() {
		seeds = 2
	}
	rcfg := randprog.DefaultConfig()
	rcfg.MaxDepth = 4
	rcfg.MaxStmts = 8
	rcfg.MaxLoopIters = 8
	cfgs := testConfigs()
	for seed := int64(0); seed < seeds; seed++ {
		p := randprog.Generate(seed, rcfg)
		// Seam points proportional to this program's dynamic length, so
		// every case actually exercises a mid-program handoff.
		full, err := emu.RunProgram(p, 500_000_000)
		if err != nil {
			t.Fatalf("seed %d: emulator: %v", seed, err)
		}
		total := full.Retired
		for _, ff := range []uint64{1, total / 4, total / 2, total - 1} {
			if ff == 0 || ff >= total {
				continue
			}
			for name, cfg := range cfgs {
				if !runSeeded(t, name, p, cfg, ff, false) {
					t.Errorf("seed %d ff=%d/%d: skip swallowed the program", seed, ff, total)
				}
			}
		}
	}
}

// TestFastForwardWarmedSeedEquivalence repeats the seam check with
// cache/branch-predictor warming enabled: warming touches timing-only
// state, so the architectural end state must be unchanged.
func TestFastForwardWarmedSeedEquivalence(t *testing.T) {
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
	}
	cfgs := testConfigs()
	rcfg := randprog.DefaultConfig()
	rcfg.MaxDepth = 4
	rcfg.MaxStmts = 8
	rcfg.MaxLoopIters = 8
	for seed := int64(50); seed < 50+seeds; seed++ {
		p := randprog.Generate(seed, rcfg)
		full, err := emu.RunProgram(p, 500_000_000)
		if err != nil {
			t.Fatalf("seed %d: emulator: %v", seed, err)
		}
		for name, cfg := range cfgs {
			runSeeded(t, name, p, cfg, full.Retired/2, true)
		}
	}
}

// TestFastForwardZeroAllocs guards the functional skip of sampled runs:
// once the emulator's page pool holds the program's footprint, a warmed
// FastForward (WarmStep as the hook) and a hookless one allocate nothing
// — the hook is handed a StepInfo the emulator owns.
func TestFastForwardZeroAllocs(t *testing.T) {
	p, err := workloads.Build("mcf", 0)
	if err != nil {
		t.Fatal(err)
	}
	em := emu.New(p)
	em.FastForward(1<<40, nil) // warm-up: grow the page pool once
	c := New(p, DefaultConfig())
	for name, hook := range map[string]func(*emu.StepInfo){"hookless": nil, "warm": c.WarmStep} {
		allocs := testing.AllocsPerRun(10, func() {
			em.Reset(p)
			em.FastForward(1<<40, hook)
		})
		if !em.Halted {
			t.Fatalf("%s: mcf did not run to completion", name)
		}
		if allocs != 0 {
			t.Errorf("%s: FastForward allocates %.1f times per run", name, allocs)
		}
	}
}

// TestSeedFromRequiresFreshCore pins the misuse guard: seeding a core
// that has already cycled must panic rather than silently corrupt state.
func TestSeedFromRequiresFreshCore(t *testing.T) {
	p := randprog.Generate(1, randprog.DefaultConfig())
	c := New(p, DefaultConfig())
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	em := emu.New(p)
	em.FastForward(16, nil)
	st := em.State()
	defer func() {
		if recover() == nil {
			t.Fatal("SeedFrom on a running core did not panic")
		}
	}()
	c.SeedFrom(&st)
}

// TestSeededWindowRetiredBase pins program-relative retirement counts: a
// window seeded at instruction N reports Result().Retired = N + window
// retirements, and a Reset clears the base.
func TestSeededWindowRetiredBase(t *testing.T) {
	p := hashyProgram(500)
	em := emu.New(p)
	const ff = 512
	if em.FastForward(ff, nil) != ff || em.Halted {
		t.Fatalf("program shorter than %d instructions", ff)
	}
	c := New(p, DefaultConfig())
	st := em.State()
	c.SeedFrom(&st)
	const window = 200
	var pre, win stats.Stats
	if err := c.RunWindow(context.Background(), 0, window, &pre, &win); err != nil {
		t.Fatal(err)
	}
	if got := c.Result().Retired; got != ff+c.Stats.Retired {
		t.Fatalf("Result().Retired = %d, want base %d + window %d", got, ff, c.Stats.Retired)
	}
	// The retire target is checked at cycle granularity, so the window can
	// overshoot by at most one commit group.
	if c.Stats.Retired < window || c.Stats.Retired >= window+uint64(DefaultConfig().CommitWidth) {
		t.Fatalf("window retired %d, want [%d, %d)", c.Stats.Retired, window, window+uint64(DefaultConfig().CommitWidth))
	}
	c.Reset(p)
	if got := c.Result().Retired; got != 0 {
		t.Fatalf("Reset left retiredBase: Result().Retired = %d", got)
	}
}
