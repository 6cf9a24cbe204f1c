package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"mssr/internal/core"
	"mssr/internal/trace"
)

type discardTracer struct{}

func (discardTracer) Emit(trace.Event) {}

// poolSweep builds a sweep that exercises core reuse: more jobs than
// workers, alternating between two workloads under the same geometry so
// pooled cores are Reset onto different programs back-to-back.
func poolSweep() []Spec {
	var specs []Spec
	for i := 0; i < 6; i++ {
		s := tinySpec()
		if i%2 == 1 {
			s.Workload = "linear-mispred"
		}
		s.VerifyArch = true
		specs = append(specs, s)
	}
	return specs
}

// freshRun runs each spec on a Runner of its own. A new Runner's pool
// starts empty, so every spec gets a core from core.New: the reference
// pooled and batched sweeps must match.
func freshRun(t *testing.T, specs []Spec) []Result {
	t.Helper()
	out := make([]Result, len(specs))
	for i, s := range specs {
		res, err := (&Runner{Jobs: 1}).Run(context.Background(), []Spec{s})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res[0]
	}
	return out
}

// TestPooledDeterminism is the end-to-end guard on the core pool: a
// sweep served by pooled (Reset) cores must be byte-identical, stat for
// stat, to the same specs run on fresh cores, and every pooled run must
// still pass the architectural cross-check against the emulator.
func TestPooledDeterminism(t *testing.T) {
	ctx := context.Background()
	fresh := freshRun(t, poolSweep())
	// Jobs=1 forces every job through the same worker, so after the
	// first job each run reuses the pooled core from the previous one —
	// the hardest case for Reset hygiene (A, B, A, B, ...).
	pooled, err := (&Runner{Jobs: 1}).Run(ctx, poolSweep())
	if err != nil {
		t.Fatal(err)
	}
	for i := range pooled {
		want, got := statsBytes(t, fresh[i]), statsBytes(t, pooled[i])
		if string(got) != string(want) {
			t.Errorf("job %d: pooled stats diverge from fresh core:\nfresh:  %s\npooled: %s", i, want, got)
		}
		if pooled[i].Arch.Retired == 0 || pooled[i].Arch != fresh[i].Arch {
			t.Errorf("job %d: architectural state diverged on pooled core", i)
		}
		if pooled[i].MIPS <= 0 {
			t.Errorf("job %d: MIPS not computed: %v", i, pooled[i].MIPS)
		}
	}

	// A parallel pooled sweep must agree with the serial one too (the
	// -race build of this test is what certifies the pool's concurrency).
	parallel, err := (&Runner{Jobs: 4}).Run(ctx, poolSweep())
	if err != nil {
		t.Fatal(err)
	}
	for i := range parallel {
		if string(statsBytes(t, parallel[i])) != string(statsBytes(t, fresh[i])) {
			t.Errorf("job %d: parallel pooled stats diverge", i)
		}
	}

	// Batched: the alternating sweep forms two lockstep groups (the even
	// jobs share one workload, the odd jobs the other), served by pooled
	// cores and one shared VerifyArch reference per group. Every result
	// must stay byte-identical to the unbatched fresh run.
	batched, err := (&Runner{Jobs: 1, Batching: true}).Run(ctx, poolSweep())
	if err != nil {
		t.Fatal(err)
	}
	for i := range batched {
		if string(statsBytes(t, batched[i])) != string(statsBytes(t, fresh[i])) {
			t.Errorf("job %d: batched stats diverge from fresh core:\nfresh:   %s\nbatched: %s",
				i, statsBytes(t, fresh[i]), statsBytes(t, batched[i]))
		}
		if batched[i].Arch.Retired == 0 || batched[i].Arch != fresh[i].Arch {
			t.Errorf("job %d: architectural state diverged under batching", i)
		}
		if batched[i].MIPS <= 0 {
			t.Errorf("job %d: batched MIPS not computed: %v", i, batched[i].MIPS)
		}
	}
}

// TestBatchedRunSubmissionOrder pins the ordering contract under batch
// grouping: grouping pulls non-adjacent specs (same workload) into one
// execution unit, but Run must still return results positionally — the
// i-th result describes the i-th submitted spec.
func TestBatchedRunSubmissionOrder(t *testing.T) {
	specs := poolSweep() // workloads interleave A,B,A,B,... so groups reorder execution
	r := &Runner{Jobs: 2, Batching: true}
	results, err := r.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(specs) {
		t.Fatalf("got %d results for %d specs", len(results), len(specs))
	}
	for i := range results {
		if results[i].Index != i {
			t.Errorf("result %d carries Index %d", i, results[i].Index)
		}
		if results[i].Key != specs[i].Key() {
			t.Errorf("result %d keyed %q, want %q", i, results[i].Key, specs[i].Key())
		}
		if results[i].Program == "" || results[i].Stats == nil {
			t.Errorf("result %d incomplete: program=%q stats=%v", i, results[i].Program, results[i].Stats)
		}
	}
}

// TestCheckedGroupMatchesLoneRuns runs commit-time checking inside a
// lockstep group: three full-detail configs of one workload share a job,
// each member checks its commits against its own emulator, and every
// result (stats, final architectural state, intervals) must equal
// the same spec run on a Runner of its own.
func TestCheckedGroupMatchesLoneRuns(t *testing.T) {
	var specs []Spec
	for _, e := range []Engine{EngineNone, EngineRGID, EngineRI} {
		specs = append(specs, Spec{Workload: "mcf", Scale: 0, Engine: e,
			Check: true, VerifyArch: true, SampleInterval: 256})
	}
	r := &Runner{Jobs: 1, Batching: true}
	if jobs := r.groupJobs(specs); len(jobs) != 1 {
		t.Fatalf("specs formed %d jobs, want one group", len(jobs))
	}
	grouped, err := r.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	alone := freshRun(t, specs)
	intervals := func(res Result) []byte {
		b, err := json.Marshal(res.Intervals)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for i := range specs {
		g, a := grouped[i], alone[i]
		if !bytes.Equal(statsBytes(t, g), statsBytes(t, a)) {
			t.Errorf("%s: grouped stats differ from a lone run:\ngrouped: %s\nalone:   %s",
				g.Key, statsBytes(t, g), statsBytes(t, a))
		}
		if g.Arch.Retired == 0 || g.Arch != a.Arch {
			t.Errorf("%s: grouped architectural state %+v, lone %+v", g.Key, g.Arch, a.Arch)
		}
		if len(g.Intervals) == 0 || !bytes.Equal(intervals(g), intervals(a)) {
			t.Errorf("%s: grouped intervals differ from a lone run", g.Key)
		}
		if g.Wall <= 0 || g.MIPS <= 0 {
			t.Errorf("%s: Wall %v, MIPS %v; want both positive", g.Key, g.Wall, g.MIPS)
		}
	}
}

// TestPoolKeyTracerUnpoolable pins the one spec class that must bypass
// the pool: traced runs, whose observer wiring is per-run.
func TestPoolKeyTracerUnpoolable(t *testing.T) {
	s := tinySpec()
	if key := s.poolKey(); key == "" {
		t.Fatal("plain spec should be poolable")
	}
	s.Tracer = discardTracer{}
	if key := s.poolKey(); key != "" {
		t.Fatalf("traced spec got pool key %q, want unpoolable", key)
	}
}

// gridOrder lists the paper's twelve grid configurations, as the bench
// sweeps them, in an order that takes one core from RI to DIR to the
// baseline to RGID: every step but the first rebuilds the engine.
func gridOrder() []Spec {
	rgid := func(streams, entries int) Spec {
		return Spec{Engine: EngineRGID, Streams: streams, Entries: entries}
	}
	bloom, noload, tiny := rgid(4, 64), rgid(4, 64), rgid(4, 64)
	bloom.Loads, noload.Loads = LoadBloom, LoadNoReuse
	tiny.Tune, tiny.TuneKey = func(c *core.Config) { c.RGIDBits = 3 }, "rgid3"
	return []Spec{
		{Engine: EngineRI, Sets: 64, Ways: 4},
		{Engine: EngineRI, Sets: 64, Ways: 1},
		{Engine: EngineDIRValue, Sets: 64, Ways: 4},
		{Engine: EngineDIRName, Sets: 64, Ways: 4},
		{Engine: EngineNone},
		rgid(1, 64), rgid(2, 64), rgid(4, 64), rgid(4, 16), bloom, noload, tiny,
	}
}

// TestPooledCoreCyclesGrid runs the twelve grid configurations one after
// another on one Runner of one worker, so its pool hands one core from
// engine to engine, forwards and back. Every result (counters, intervals
// and the RI replacement histogram) must be byte-identical to the same
// spec run on a new core. rgid-tiny's 3-bit RGIDs are a tuning, which
// makes them a machine shape of their own.
func TestPooledCoreCyclesGrid(t *testing.T) {
	for _, interval := range []uint64{0, 4096} {
		var specs []Spec
		for _, s := range gridOrder() {
			s.Workload, s.Scale, s.SampleInterval = "nested-mispred", 0, interval
			specs = append(specs, s)
		}
		fresh := freshRun(t, specs)
		back := slices.Clone(specs)
		slices.Reverse(back)
		pool := &CorePool{}
		r := &Runner{Jobs: 1, Cores: pool}
		for pass, order := range [][]Spec{specs, back} {
			for _, s := range order {
				res, err := r.Run(context.Background(), []Spec{s})
				if err != nil {
					t.Fatal(err)
				}
				want := fresh[slices.IndexFunc(specs, func(f Spec) bool { return f.Key() == s.Key() })]
				got := res[0]
				if !bytes.Equal(statsBytes(t, got), statsBytes(t, want)) {
					t.Errorf("iv%d pass %d %s: pooled stats differ from a new core's:\npooled: %s\nnew:    %s",
						interval, pass, s.Key(), statsBytes(t, got), statsBytes(t, want))
				}
				if !reflect.DeepEqual(got.Stats.RIReplacements, want.Stats.RIReplacements) {
					t.Errorf("iv%d pass %d %s: RI replacements %v, a new core's %v",
						interval, pass, s.Key(), got.Stats.RIReplacements, want.Stats.RIReplacements)
				}
				gi, _ := json.Marshal(got.Intervals)
				wi, _ := json.Marshal(want.Intervals)
				if !bytes.Equal(gi, wi) || (interval > 0 && len(want.Intervals) == 0) {
					t.Errorf("iv%d pass %d %s: pooled intervals differ from a new core's:\npooled: %s\nnew:    %s",
						interval, pass, s.Key(), gi, wi)
				}
			}
		}
		// With one worker the pool keeps one idle core, so returning
		// rgid-tiny's core drops the plain shape's, which the way back
		// builds again: three cores in all. Each pass's ten other
		// plain-shape draws rebuild the engine the spec before left.
		if cores, engines := pool.Builds(); cores != 3 || engines != 20 {
			t.Errorf("iv%d: the pool built %d cores and rebuilt %d engines, want 3 and 20",
				interval, cores, engines)
		}
	}
}

// TestSecondGridPassRebuildsNothing: a batched grid pass draws one core
// per configuration at once, so the pool keeps one of each, and a second
// pass takes every core with its engine as it is, even one that draws
// them in the opposite order. The idle list never outgrows the most
// cores in use at once: a spec of a new shape adds a core and drops the
// least recently returned one.
func TestSecondGridPassRebuildsNothing(t *testing.T) {
	var specs []Spec
	for _, w := range []string{"nested-mispred", "linear-mispred"} {
		for _, s := range gridOrder() {
			s.Workload, s.Scale = w, 0
			specs = append(specs, s)
		}
	}
	pool := &CorePool{}
	r := &Runner{Jobs: 1, Batching: true, Cores: pool}
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			slices.Reverse(specs)
		}
		if _, err := r.Run(context.Background(), specs); err != nil {
			t.Fatal(err)
		}
		if cores, engines := pool.Builds(); cores != len(gridOrder()) || engines != 0 {
			t.Fatalf("after pass %d the pool built %d cores and rebuilt %d engines, want %d and 0",
				pass, cores, engines, len(gridOrder()))
		}
	}
	lone := specs[0]
	lone.SampleInterval = 512
	if _, err := r.Run(context.Background(), []Spec{lone}); err != nil {
		t.Fatal(err)
	}
	if cores, _ := pool.Builds(); cores != len(gridOrder())+1 || len(pool.idle) != len(gridOrder()) {
		t.Errorf("a new shape built %d cores in all and left %d idle, want %d and %d",
			cores, len(pool.idle), len(gridOrder())+1, len(gridOrder()))
	}
}
