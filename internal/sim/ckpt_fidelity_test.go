package sim

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mssr/internal/ckpt"
	"mssr/internal/emu"
	"mssr/internal/workloads"
)

var updateSampledGolden = flag.Bool("update-sampled-golden", false,
	"rewrite testdata/sampled_golden.json from this build's sampled results")

// contentOnly strips the execution-path observables (wall clock, MIPS,
// checkpoint hit/miss accounting, FFExecuted) and the identity fields
// that legitimately differ between a checkpoint-enabled spec and its
// NoCheckpoint reference, leaving exactly the result content the
// byte-identity contract covers: stats, intervals, windows,
// extrapolation figures and the architectural end state.
func contentOnly(r Result) Result {
	r.Index, r.Key, r.Spec = 0, "", Spec{}
	r.Wall, r.MIPS = 0, 0
	r.CkptHits, r.CkptMisses, r.FFExecuted = 0, 0, 0
	return r
}

// TestCheckpointDifferentialGrid pins the central soundness claim of
// checkpointed multi-fidelity sampling: across a 12-config grid (four
// engines × uniform / phase-selected / adaptive-stopping sampling), a
// run that restores its boundaries from the checkpoint store is
// byte-identical — stats, intervals, extrapolation, architectural end
// state — to the equivalent run that re-emulates every functional
// prefix, and a fully warm second run re-executes zero fast-forward
// instructions. Four more shapes cover what the grid's geometry never
// reaches: warmed skips over a store (captured, never restored), a
// fast-forward-only exact run, and uniform and phase-selected runs whose
// last window commits HALT.
//
// Every case's ref, cold and warm results are also compared with
// testdata/sampled_golden.json, down to the float bit patterns and the
// checkpoint accounting, so a change to the sampled-window loop that
// moves any of them fails here. Regenerate the file with
// -update-sampled-golden only for a change that means to move them.
func TestCheckpointDifferentialGrid(t *testing.T) {
	golden := map[string]map[string]sampledOutcome{}
	if !*updateSampledGolden {
		blob, err := os.ReadFile(sampledGoldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(blob, &golden); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]map[string]sampledOutcome{}
	declared := map[string]bool{} // every case name, run or filtered out
	pin := func(t *testing.T, name string, runs map[string]Result) {
		got[name] = map[string]sampledOutcome{}
		for run, res := range runs {
			out := outcomeOf(res)
			got[name][run] = out
			if *updateSampledGolden {
				continue
			}
			if want, ok := golden[name][run]; !ok {
				t.Errorf("%s run has no golden entry", run)
			} else if out != want {
				t.Errorf("%s run differs from the golden:\ngot:  %+v\nwant: %+v", run, out, want)
			}
		}
	}

	engines := []Engine{EngineNone, EngineRGID, EngineRI, EngineDIRValue}
	modes := []struct {
		name   string
		phase  PhaseMode
		maxErr float64
	}{
		{"uniform", PhaseUniform, 0},
		{"kmeans", PhaseKMeans, 0},
		{"adaptive", PhaseUniform, 0.05},
	}
	for _, eng := range engines {
		for _, mode := range modes {
			name := eng.String() + "/" + mode.name
			declared[name] = true
			t.Run(name, func(t *testing.T) {
				spec := Spec{
					Workload: "mcf", Scale: 0, Engine: eng,
					FastForward: 1000, DetailedWindow: 500, SamplePeriods: 5,
					PhaseSelect: mode.phase, MaxErr: mode.maxErr,
					VerifyArch: true,
				}
				ref, cold, warm := differentialRuns(t, spec)
				if ref.CkptHits != 0 || ref.CkptMisses != 0 || warm.Windows == 0 {
					t.Fatalf("reference touched the checkpoint store (hits %d, misses %d) or warm run measured nothing",
						ref.CkptHits, ref.CkptMisses)
				}
				if warm.CkptHits == 0 {
					t.Errorf("warm run restored no checkpoints")
				}
				if warm.CkptMisses != 0 {
					t.Errorf("warm run missed %d boundaries the cold run should have captured", warm.CkptMisses)
				}
				if warm.FFExecuted != 0 {
					t.Errorf("warm run re-executed %d functional fast-forward instructions, want 0", warm.FFExecuted)
				}
				pin(t, name, map[string]Result{"ref": ref, "cold": cold, "warm": warm})
			})
		}
	}

	// mcf@s0 retires 14412 instructions: periods of 3000 skipped + 375
	// warm-up + 1500 measured put HALT inside the third window.
	halt := Spec{Workload: "mcf", Scale: 0, Engine: EngineRGID, VerifyArch: true, SampleInterval: 256,
		FastForward: 3000, DetailedWindow: 1500, SamplePeriods: 8}
	shapes := []struct {
		name string
		spec Spec
	}{
		{"rgid/warm-store", Spec{Workload: "mcf", Scale: 0, Engine: EngineRGID, VerifyArch: true, SampleInterval: 256,
			FastForward: 1000, DetailedWindow: 500, SamplePeriods: 5, Warm: true}},
		{"rgid/ff-only", Spec{Workload: "mcf", Scale: 0, Engine: EngineRGID, VerifyArch: true, SampleInterval: 256,
			FastForward: 2000}},
		{"rgid/halt-uniform", halt},
		{"rgid/halt-kmeans", func() Spec { s := halt; s.PhaseSelect = PhaseKMeans; return s }()},
	}
	for _, sh := range shapes {
		declared[sh.name] = true
		t.Run(sh.name, func(t *testing.T) {
			ref, cold, warm := differentialRuns(t, sh.spec)
			if warm.Windows == 0 || ref.CkptHits != 0 || ref.CkptMisses != 0 {
				t.Fatalf("warm run measured nothing or the reference touched the store: %+v", ref)
			}
			if sh.spec.Warm {
				// Warmed skips are the warming: they capture, never restore.
				if warm.CkptHits != 0 || warm.FFExecuted != cold.FFExecuted {
					t.Errorf("warmed run restored %d boundaries or skipped emulation (%d vs %d executed)",
						warm.CkptHits, warm.FFExecuted, cold.FFExecuted)
				}
			} else if warm.CkptHits == 0 || warm.CkptMisses != 0 || warm.FFExecuted != 0 {
				t.Errorf("warm run: hits %d, misses %d, executed %d; want restores only",
					warm.CkptHits, warm.CkptMisses, warm.FFExecuted)
			}
			pin(t, sh.name, map[string]Result{"ref": ref, "cold": cold, "warm": warm})
		})
	}

	if *updateSampledGolden {
		if len(got) != len(declared) {
			t.Fatal("-update-sampled-golden needs every case: drop the subtest filter")
		}
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sampledGoldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for name := range golden {
		if !declared[name] {
			t.Errorf("golden case %s is no longer in the grid", name)
		}
	}
}

// differentialRuns runs spec three ways — re-emulating every prefix
// (NoCheckpoint), then cold and warm over one fresh checkpoint store —
// and requires all three to carry the same result content.
func differentialRuns(t *testing.T, spec Spec) (ref, cold, warm Result) {
	t.Helper()
	refSpec := spec
	refSpec.NoCheckpoint = true

	refRunner := &Runner{Jobs: 1}
	refRes, err := refRunner.Run(context.Background(), []Spec{refSpec})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	ref = refRes[0]

	ck := &Runner{Jobs: 1, Checkpoints: ckpt.NewMemory(-1)}
	coldRes, err := ck.Run(context.Background(), []Spec{spec})
	if err != nil {
		t.Fatalf("cold checkpointed run: %v", err)
	}
	cold = coldRes[0]
	warmRes, err := ck.Run(context.Background(), []Spec{spec})
	if err != nil {
		t.Fatalf("warm checkpointed run: %v", err)
	}
	warm = warmRes[0]

	if !reflect.DeepEqual(contentOnly(ref), contentOnly(cold)) {
		t.Errorf("cold checkpointed result differs from re-emulated reference:\nref:  %+v\ncold: %+v",
			contentOnly(ref), contentOnly(cold))
	}
	if !reflect.DeepEqual(contentOnly(ref), contentOnly(warm)) {
		t.Errorf("warm checkpointed result differs from re-emulated reference:\nref:  %+v\nwarm: %+v",
			contentOnly(ref), contentOnly(warm))
	}
	return ref, cold, warm
}

const sampledGoldenPath = "testdata/sampled_golden.json"

// sampledOutcome is what the sampled golden pins of one result: digests
// of the counters and the interval stream, the fidelity figures (floats
// as bit patterns), the architectural end state and the checkpoint
// accounting.
type sampledOutcome struct {
	Stats         string `json:"stats"`
	Intervals     string `json:"intervals"`
	Windows       int    `json:"windows"`
	TotalRetired  uint64 `json:"total_retired"`
	FastForwarded uint64 `json:"fast_forwarded"`
	Extrapolated  bool   `json:"extrapolated"`
	Arch          string `json:"arch"`
	IPC           string `json:"extrapolated_ipc_bits"`
	IPCErr        string `json:"ipc_error_est_bits"`
	CkptHits      int    `json:"ckpt_hits"`
	CkptMisses    int    `json:"ckpt_misses"`
	FFExecuted    uint64 `json:"ff_executed"`
}

func outcomeOf(r Result) sampledOutcome {
	return sampledOutcome{
		Stats: digestJSON(r.Stats), Intervals: digestJSON(r.Intervals),
		Windows: r.Windows, TotalRetired: r.TotalRetired, FastForwarded: r.FastForwarded,
		Extrapolated: r.Extrapolated, Arch: digestJSON(r.Arch),
		IPC:      fmt.Sprintf("%016x", math.Float64bits(r.ExtrapolatedIPC)),
		IPCErr:   fmt.Sprintf("%016x", math.Float64bits(r.IPCErrorEst)),
		CkptHits: r.CkptHits, CkptMisses: r.CkptMisses, FFExecuted: r.FFExecuted,
	}
}

// digestJSON is the FNV-1a hash of v's JSON encoding.
func digestJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestStaleProfileFailsTheRun: a persisted profile whose geometry
// matches the spec but whose positions lie past the program's end (as
// one left by a different build of the program would) fails the
// phase-selected run at its first jump, before any window is measured,
// naming the position it could not reach.
func TestStaleProfileFailsTheRun(t *testing.T) {
	spec := Spec{Workload: "mcf", Scale: 0, Engine: EngineRGID,
		FastForward: 1000, DetailedWindow: 500, SamplePeriods: 2, PhaseSelect: PhaseKMeans}
	const past = 1 << 30 // mcf@s0 retires 14412 instructions
	prof := phaseProfile{
		Version: profileVersion, FastForward: 1000, DetailedWindow: 500, Periods: 2,
		Pos: []uint64{past, past + 2000}, Pre: []uint64{past - 1000, past + 1000},
		IPC: []float64{1, 2}, Reuse: []float64{0, 0.5}, MPKI: []float64{5, 1}, BranchMPKI: []float64{4, 1},
		JumpIPC: []float64{1, 2}, TotalRetired: past + 4000,
	}
	if !prof.valid(&spec) {
		t.Fatal("planted profile does not match the spec's geometry")
	}
	blob, err := json.Marshal(prof)
	if err != nil {
		t.Fatal(err)
	}
	store := ckpt.NewMemory(-1)
	store.Put(profileKey(&spec), blob)

	res, err := (&Runner{Jobs: 1, Checkpoints: store}).Run(context.Background(), []Spec{spec})
	if err == nil {
		t.Fatal("run over a stale profile succeeded")
	}
	first := prof.Pre[selectPhases(&prof, phaseK)[0].Tile]
	want := fmt.Sprintf("program ended before position %d (profile stale?)", first)
	if r := res[0]; r.Err == nil || !strings.Contains(r.Err.Error(), want) || r.Windows != 0 {
		t.Fatalf("got windows %d, error %v; want 0 windows and %q", r.Windows, r.Err, want)
	}
}

// TestUnrestorableCheckpointReplaced: a blob that passes the store's
// checks but does not restore costs one miss, whether it is junk or a
// checkpoint an older encoding wrote, as in an msrd -ckpt directory an
// older build left. The run that misses it replaces it, in a memory
// store and on disk, so the next run restores that boundary.
func TestUnrestorableCheckpointReplaced(t *testing.T) {
	spec := Spec{Workload: "mcf", Scale: 0, Engine: EngineRGID,
		FastForward: 1000, DetailedWindow: 500, SamplePeriods: 3}
	key, end := boundaryKey(spec.CheckpointKey(), spec.FastForward), endKey(spec.CheckpointKey())
	// testdata/ckpt-v2 holds the two checkpoints this spec restores as a
	// version-2 build wrote them: its first boundary (no page changed
	// since load, so a bare header) and its end state (one whole page).
	v2 := map[string][]byte{}
	for k, file := range map[string]string{key: "mcf-s0-1000", end: "mcf-s0-end"} {
		b, err := os.ReadFile(filepath.Join("testdata", "ckpt-v2", file))
		if err != nil {
			t.Fatal(err)
		}
		v2[k] = b
	}
	seeds := map[string]map[string][]byte{
		"junk":      {key: []byte("junk")},
		"version 2": v2,
	}
	run := func(t *testing.T, store *ckpt.Store) Result {
		t.Helper()
		res, err := (&Runner{Jobs: 1, Checkpoints: store}).Run(context.Background(), []Spec{spec})
		if err != nil {
			t.Fatal(err)
		}
		return res[0]
	}
	check := func(t *testing.T, first, second Result) {
		t.Helper()
		if first.CkptHits != 0 || first.CkptMisses == 0 {
			t.Fatalf("first run: hits %d, misses %d; want misses only", first.CkptHits, first.CkptMisses)
		}
		if second.CkptHits == 0 || second.CkptMisses != 0 {
			t.Errorf("second run: hits %d, misses %d; want restores only", second.CkptHits, second.CkptMisses)
		}
	}

	t.Run("memory", func(t *testing.T) {
		for name, blobs := range seeds {
			t.Run(name, func(t *testing.T) {
				store := ckpt.NewMemory(-1)
				for k, b := range blobs {
					store.Put(k, b)
				}
				first := run(t, store)
				check(t, first, run(t, store))
			})
		}
	})
	t.Run("disk", func(t *testing.T) {
		for name, blobs := range seeds {
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				open := func() *ckpt.Store {
					s, err := ckpt.Open(dir, -1, 0, nil)
					if err != nil {
						t.Fatal(err)
					}
					return s
				}
				store := open()
				for k, b := range blobs {
					store.Put(k, b)
				}
				store.Close()
				store = open()
				first := run(t, store)
				store.Close()
				store = open()
				defer store.Close()
				check(t, first, run(t, store))
			})
		}
	})
}

// TestSelectPhasesDeterministic pins the clustering: same profile, same
// representatives, weights that partition the tile count, and the
// most-populous-first order adaptive stopping relies on.
func TestSelectPhasesDeterministic(t *testing.T) {
	p := &phaseProfile{
		Pos:        []uint64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120},
		IPC:        []float64{1.0, 1.1, 1.0, 3.0, 3.1, 3.0, 1.05, 3.05, 1.0, 0.2, 0.21, 0.2},
		Reuse:      []float64{0.1, 0.1, 0.1, 0.5, 0.5, 0.5, 0.1, 0.5, 0.1, 0.0, 0.0, 0.0},
		MPKI:       []float64{5, 5, 5, 1, 1, 1, 5, 1, 5, 20, 20, 20},
		BranchMPKI: []float64{4, 4, 4, 1, 1, 1, 4, 1, 4, 18, 18, 18},
	}
	a := selectPhases(p, phaseK)
	b := selectPhases(p, phaseK)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("selectPhases is nondeterministic:\n%v\n%v", a, b)
	}
	total := 0
	for i, rep := range a {
		total += rep.Weight
		if rep.Weight <= 0 || rep.Tile < 0 || rep.Tile >= len(p.Pos) {
			t.Fatalf("rep %d out of range: %+v", i, rep)
		}
		if i > 0 && a[i-1].Weight < rep.Weight {
			t.Fatalf("reps not in weight order: %v", a)
		}
	}
	if total != len(p.Pos) {
		t.Fatalf("cluster weights sum to %d, want %d (a partition of the tiles)", total, len(p.Pos))
	}
	// The three synthetic phases are well separated: clustering must not
	// collapse them into one.
	if len(a) < 3 {
		t.Fatalf("expected at least 3 clusters for 3 well-separated phases, got %d: %v", len(a), a)
	}
}

// TestAdaptiveStoppingStopsEarly: a loose error target must end a
// sampled run before all periods, and the reported estimate must meet
// the target it stopped at.
func TestAdaptiveStoppingStopsEarly(t *testing.T) {
	spec := Spec{
		Workload: "mcf", Scale: 0, Engine: EngineRGID,
		FastForward: 500, DetailedWindow: 250, SamplePeriods: 16,
		MaxErr: 0.5, // essentially "stop as soon as the floor allows"
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Windows >= 16 {
		t.Fatalf("adaptive stopping never fired: %d windows of 16", res.Windows)
	}
	if res.IPCErrorEst > spec.MaxErr {
		t.Fatalf("stopped with IPCErrorEst %.4f above the %.2f target", res.IPCErrorEst, spec.MaxErr)
	}
	if !res.Extrapolated || res.TotalRetired == 0 {
		t.Fatalf("early-stopped run lost its extrapolation: %+v", res)
	}
}

// TestCheckpointRestoreZeroAlloc is the sim-level allocation guard on
// the warm restore path: fetching a boundary from the store's memory
// tier and installing it into a warm emulator must not allocate, so
// checkpoint-warm sweeps cannot regress the core's steady-state
// discipline (TestSteadyStateZeroAllocs).
func TestCheckpointRestoreZeroAlloc(t *testing.T) {
	prog, err := workloads.Build("mcf", 0)
	if err != nil {
		t.Fatal(err)
	}
	em := emu.New(prog)
	em.FastForward(2000, nil)
	store := ckpt.NewMemory(-1)
	store.Put("mcf@s0#2000", em.AppendBinary(nil))

	if allocs := testing.AllocsPerRun(50, func() {
		blob, ok := store.Get("mcf@s0#2000")
		if !ok {
			t.Fatal("miss")
		}
		if err := em.RestoreBinary(blob); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm checkpoint restore allocates %.1f times per boundary", allocs)
	}
}

// BenchmarkCheckpointRestore measures the end-to-end warm boundary
// restore — store lookup plus emulator install — the operation that
// replaces O(instructions) of functional fast-forward on warm sweeps.
func BenchmarkCheckpointRestore(b *testing.B) {
	prog, err := workloads.Build("mcf", 0)
	if err != nil {
		b.Fatal(err)
	}
	em := emu.New(prog)
	em.FastForward(2000, nil)
	blob := em.AppendBinary(nil)
	store := ckpt.NewMemory(-1)
	store.Put("mcf@s0#2000", blob)
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, ok := store.Get("mcf@s0#2000")
		if !ok {
			b.Fatal("miss")
		}
		if err := em.RestoreBinary(got); err != nil {
			b.Fatal(err)
		}
	}
}
