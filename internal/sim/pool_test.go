package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

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
