package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"mssr/internal/emu"
	"mssr/internal/events"
	"mssr/internal/isa"
	"mssr/internal/obs"
)

// TestResetEquivalence runs different workloads back-to-back through one
// Reset core under every engine configuration, verifying each run against
// the functional emulator — the state-leak guard for the pooling
// contract: nothing from a previous program may influence the next.
func TestResetEquivalence(t *testing.T) {
	progA := hashyProgram(300)
	progB := aliasProgram(300)
	for name, cfg := range testConfigs() {
		t.Run(name, func(t *testing.T) {
			cfg.DebugCheck = true
			cfg.MaxCycles = 50_000_000
			c := New(progA, cfg)
			for _, p := range []*isa.Program{progA, progB, progA} {
				c.Reset(p)
				if err := c.Run(); err != nil {
					t.Fatalf("%s: %v", p.Name, err)
				}
				want, err := emu.RunProgram(p, 500_000_000)
				if err != nil {
					t.Fatalf("%s: emulator: %v", p.Name, err)
				}
				if got := c.Result(); got != want {
					t.Fatalf("%s: architectural divergence after Reset:\ncore: %+v\nemu:  %+v", p.Name, got, want)
				}
				if err := c.AuditRegisters(); err != nil {
					t.Fatalf("%s: register audit after Reset: %v", p.Name, err)
				}
			}
		})
	}
}

// TestResetMatchesFresh pins the fresh==Reset construction: a core that
// ran one program and was Reset onto another must replay the exact cycle
// count and counters of a core built fresh for it. Any divergence means
// Reset missed a piece of state.
func TestResetMatchesFresh(t *testing.T) {
	progA := aliasProgram(200)
	progB := hashyProgram(400)
	for name, cfg := range testConfigs() {
		t.Run(name, func(t *testing.T) {
			cfg.MaxCycles = 50_000_000
			reset := New(progA, cfg)
			if err := reset.Run(); err != nil {
				t.Fatalf("first run: %v", err)
			}
			reset.Reset(progB)
			if err := reset.Run(); err != nil {
				t.Fatalf("reset run: %v", err)
			}
			fresh := New(progB, cfg)
			if err := fresh.Run(); err != nil {
				t.Fatalf("fresh run: %v", err)
			}
			if reset.Stats.Cycles != fresh.Stats.Cycles ||
				reset.Stats.Retired != fresh.Stats.Retired ||
				reset.Stats.Flushes != fresh.Stats.Flushes ||
				reset.Stats.ReuseHits != fresh.Stats.ReuseHits ||
				reset.Stats.BranchMispredicts != fresh.Stats.BranchMispredicts {
				t.Fatalf("reset core diverged from fresh core:\nreset: %v\nfresh: %v", reset.Stats, fresh.Stats)
			}
			if reset.Result() != fresh.Result() {
				t.Fatalf("architectural state diverged:\nreset: %+v\nfresh: %+v", reset.Result(), fresh.Result())
			}
		})
	}
}

// TestSteadyStateZeroAllocs is the allocation-discipline guard: after a
// warm-up run has grown every structure (map buckets included), a full
// Reset+rerun of the same workload must allocate nothing. hashyProgram is
// squash-heavy (its branch defeats TAGE), so this simultaneously pins the
// regression that squash recovery — formerly a map allocation per event —
// no longer allocates per flush. The sampled variant attaches the
// interval-telemetry sampler (internal/obs), which must record into its
// preallocated ring without breaking the discipline.
func TestSteadyStateZeroAllocs(t *testing.T) {
	prog := hashyProgram(500)
	sampling := map[string]uint64{"": 0, "sampled": 4096}
	for name, cfg := range testConfigs() {
		for variant, interval := range sampling {
			sub := name
			if variant != "" {
				sub = name + "/" + variant
			}
			cfg := cfg
			cfg.SampleInterval = interval
			t.Run(sub, func(t *testing.T) {
				cfg.MaxCycles = 50_000_000
				c := New(prog, cfg)
				if err := c.Run(); err != nil { // warm-up: grow everything once
					t.Fatalf("warm-up: %v", err)
				}
				if c.Stats.Flushes < 100 {
					t.Fatalf("workload not squash-heavy enough to pin recovery allocations: %d flushes", c.Stats.Flushes)
				}
				// 10 runs: AllocsPerRun's integer division absorbs the
				// occasional stray GC-internal allocation landing
				// mid-measurement under suite heap pressure; a real per-run
				// allocation still reads >= 1.
				var runErr error
				allocs := testing.AllocsPerRun(10, func() {
					c.Reset(prog)
					if err := c.Run(); err != nil {
						runErr = err
					}
				})
				if runErr != nil {
					t.Fatalf("measured run: %v", runErr)
				}
				if allocs != 0 {
					t.Errorf("steady-state run allocated %.1f objects (cycles=%d, flushes=%d); want 0",
						allocs, c.Stats.Cycles, c.Stats.Flushes)
				}
			})
		}
	}

	// Batched: all twelve configs stepping the shared stream in lockstep,
	// each checking its commits against its own emulator. The Batch is
	// constructed once; steady-state reuse (reset members + Run) must
	// allocate nothing, checker stepping included.
	t.Run("batched", func(t *testing.T) {
		cfgs := testConfigs()
		names := batchTestNames()
		cores := make([]*Core, len(names))
		for i, name := range names {
			cfg := cfgs[name]
			cfg.DebugCheck = true
			cfg.MaxCycles = 50_000_000
			cores[i] = New(prog, cfg)
		}
		b, err := NewBatch(cores, 0)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var runErrs []error
		run := func() {
			for _, c := range cores {
				c.Reset(prog)
			}
			for _, err := range b.Run(ctx) {
				if err != nil {
					runErrs = append(runErrs, err)
				}
			}
		}
		run() // warm-up: grow every structure once
		// 10 runs for the same GC-noise absorption as the per-config loop.
		allocs := testing.AllocsPerRun(10, run)
		if len(runErrs) > 0 {
			t.Fatalf("batched runs failed: %v", runErrs)
		}
		if allocs != 0 {
			t.Errorf("steady-state batched run allocated %.1f objects; want 0", allocs)
		}
	})
}

// TestSteadyStateZeroAllocsWithHub extends the allocation guard to the
// live-telemetry tap: a sampled core whose interval hook publishes onto
// an events.Hub with no subscribers must still run allocation-free —
// the hub's fast path is one atomic load, and the Event is passed by
// value. This is the contract that lets the daemon keep the hub
// attached unconditionally.
func TestSteadyStateZeroAllocsWithHub(t *testing.T) {
	prog := hashyProgram(500)
	hub := &events.Hub{}
	for name, cfg := range testConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			cfg.MaxCycles = 50_000_000
			cfg.SampleInterval = 4096
			c := New(prog, cfg)
			// The hook is hoisted so the measured loop only re-installs an
			// existing func value after each Reset (as the runner's pooled
			// path does), rather than allocating a fresh closure.
			hook := func(iv *obs.Interval) {
				hub.Publish(events.Event{Type: events.TypeInterval, Key: prog.Name, Interval: *iv})
			}
			c.SetIntervalHook(hook)
			if err := c.Run(); err != nil {
				t.Fatalf("warm-up: %v", err)
			}
			// 10 runs (vs the 2 elsewhere): AllocsPerRun's integer division
			// then absorbs the occasional stray GC-internal allocation that
			// lands mid-measurement under full-suite heap pressure, while a
			// real per-run allocation still reads >= 1.
			var runErr error
			allocs := testing.AllocsPerRun(10, func() {
				c.Reset(prog) // clears the hook, as pooling does
				c.SetIntervalHook(hook)
				if err := c.Run(); err != nil {
					runErr = err
				}
			})
			if runErr != nil {
				t.Fatalf("measured run: %v", runErr)
			}
			if allocs != 0 {
				t.Errorf("hub-attached steady-state run allocated %.1f objects; want 0", allocs)
			}
			if hub.Published() != 0 {
				t.Errorf("no-subscriber publishes were counted as broadcast: %d", hub.Published())
			}
		})
	}
}

// TestSampledIntervalsPooledVsFresh extends the fresh==Reset contract to
// the telemetry stream: the interval NDJSON emitted by a pooled (Reset)
// core must be byte-identical to the one from a freshly built core, under
// every engine configuration. Any difference means either the sampler
// leaks state across Reset or the simulation itself diverged.
func TestSampledIntervalsPooledVsFresh(t *testing.T) {
	progA := aliasProgram(200)
	progB := hashyProgram(400)
	for name, cfg := range testConfigs() {
		t.Run(name, func(t *testing.T) {
			cfg.MaxCycles = 50_000_000
			cfg.SampleInterval = 256
			cfg.SampleWindow = 4096
			pooled := New(progA, cfg)
			if err := pooled.Run(); err != nil {
				t.Fatalf("pooled first run: %v", err)
			}
			pooled.Reset(progB)
			if err := pooled.Run(); err != nil {
				t.Fatalf("pooled reset run: %v", err)
			}
			fresh := New(progB, cfg)
			if err := fresh.Run(); err != nil {
				t.Fatalf("fresh run: %v", err)
			}
			ivs := fresh.Intervals()
			if len(ivs) == 0 {
				t.Fatal("no intervals recorded; workload too short for interval 256?")
			}
			pooledOut, err := json.Marshal(pooled.Intervals())
			if err != nil {
				t.Fatal(err)
			}
			freshOut, err := json.Marshal(ivs)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pooledOut, freshOut) {
				t.Fatalf("intervals diverged between pooled and fresh cores:\npooled:\n%s\nfresh:\n%s",
					pooledOut, freshOut)
			}
			// The memory-hierarchy mirror must be live: both programs load
			// every iteration, so L1D traffic is guaranteed.
			if fresh.Stats.L1DHits+fresh.Stats.L1DMisses == 0 {
				t.Error("stats carry no L1D activity; syncMemStats not wired?")
			}
		})
	}
}
