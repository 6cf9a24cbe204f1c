package sim

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"mssr/internal/obs"
)

// TestFidelityExactMatchesFullDetail: a fast-forward-only spec (no
// window) is an exact run — the detailed core finishes the program and
// the architectural end state and total retired count are bit-for-bit
// the full-detail ones. VerifyArch performs that comparison inside the
// runner; this test additionally pins the fidelity accounting fields.
func TestFidelityExactMatchesFullDetail(t *testing.T) {
	r := &Runner{Jobs: 1}
	full, err := r.Run(context.Background(), []Spec{
		{Workload: "mcf", Scale: 0, Engine: EngineRGID, VerifyArch: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(context.Background(), []Spec{
		{Workload: "mcf", Scale: 0, Engine: EngineRGID, VerifyArch: true, Check: true, FastForward: 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := res[0]
	if f.Extrapolated {
		t.Error("ff-only run reported Extrapolated")
	}
	if f.Windows != 1 {
		t.Errorf("Windows = %d, want 1", f.Windows)
	}
	if f.Arch != full[0].Arch {
		t.Errorf("architectural state differs from full detail:\nfidelity: %+v\nfull:     %+v", f.Arch, full[0].Arch)
	}
	if f.TotalRetired != full[0].Stats.Retired {
		t.Errorf("TotalRetired = %d, want %d", f.TotalRetired, full[0].Stats.Retired)
	}
	if f.FastForwarded != 2000 {
		t.Errorf("FastForwarded = %d, want 2000", f.FastForwarded)
	}
	if f.Stats.Retired != f.TotalRetired-f.FastForwarded {
		t.Errorf("detailed retired %d != total %d - skipped %d", f.Stats.Retired, f.TotalRetired, f.FastForwarded)
	}
}

// TestFidelityExtrapolated pins the sampled mode: several
// {skip, window} periods, a functional tail, and an extrapolated IPC
// with an error estimate.
func TestFidelityExtrapolated(t *testing.T) {
	spec := Spec{
		Workload: "mcf", Scale: 0, Engine: EngineRGID, Check: true, Warm: true,
		FastForward: 1000, DetailedWindow: 500, SamplePeriods: 5,
		SampleInterval: 256,
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Extrapolated {
		t.Fatal("windowed run not marked Extrapolated")
	}
	if res.Windows != 5 {
		t.Errorf("Windows = %d, want 5", res.Windows)
	}
	if res.TotalRetired != 14412 { // mcf@s0's dynamic length
		t.Errorf("TotalRetired = %d, want 14412", res.TotalRetired)
	}
	if res.Stats.Retired+res.FastForwarded != res.TotalRetired {
		t.Errorf("detailed %d + skipped %d != total %d", res.Stats.Retired, res.FastForwarded, res.TotalRetired)
	}
	if res.ExtrapolatedIPC <= 0 {
		t.Errorf("ExtrapolatedIPC = %v, want > 0", res.ExtrapolatedIPC)
	}
	if res.IPCErrorEst < 0 {
		t.Errorf("IPCErrorEst = %v, want >= 0", res.IPCErrorEst)
	}
	if len(res.Intervals) == 0 {
		t.Fatal("sampled fidelity run produced no intervals")
	}
	windows := map[int]bool{}
	for _, iv := range res.Intervals {
		if iv.Mode != obs.ModeDetail {
			t.Fatalf("interval mode %q, want %q", iv.Mode, obs.ModeDetail)
		}
		windows[iv.Window] = true
	}
	for w := 1; w <= res.Windows; w++ {
		if !windows[w] {
			t.Errorf("no interval annotated for window %d", w)
		}
	}
}

// TestFidelityPooledDeterminism: a pooled, reused core must produce the
// same multi-fidelity result as fresh cores — the Reset+SeedFrom path
// leaks nothing between periods or jobs.
func TestFidelityPooledDeterminism(t *testing.T) {
	specs := []Spec{
		{Workload: "mcf", Scale: 0, Engine: EngineRGID, Check: true, Warm: true,
			FastForward: 1000, DetailedWindow: 500, SamplePeriods: 5, SampleInterval: 256},
		{Workload: "mcf", Scale: 0, Engine: EngineRGID, Check: true, Warm: true,
			FastForward: 1000, DetailedWindow: 500, SamplePeriods: 5, SampleInterval: 256},
		{Workload: "cc", Scale: 0, Engine: EngineRGID, Check: true, Warm: true,
			FastForward: 1000, DetailedWindow: 500, SamplePeriods: 5, SampleInterval: 256},
	}
	pooled, err := (&Runner{Jobs: 1}).Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	fresh := freshRun(t, specs)
	for i := range specs {
		p, f := pooled[i], fresh[i]
		if !reflect.DeepEqual(p.Stats, f.Stats) {
			t.Errorf("%s: pooled stats differ from fresh", p.Key)
		}
		if !reflect.DeepEqual(p.Intervals, f.Intervals) {
			t.Errorf("%s: pooled intervals differ from fresh", p.Key)
		}
		if p.ExtrapolatedIPC != f.ExtrapolatedIPC || p.IPCErrorEst != f.IPCErrorEst ||
			p.TotalRetired != f.TotalRetired || p.Windows != f.Windows {
			t.Errorf("%s: pooled fidelity fields differ from fresh", p.Key)
		}
	}
	// The two identical specs must agree with each other too (the second
	// drew the first's pooled core).
	if !reflect.DeepEqual(pooled[0].Stats, pooled[1].Stats) {
		t.Error("identical fidelity specs disagree under pooling")
	}
}

// TestFidelitySpecsRunAsSingletonsUnderBatching: fast-forwarded specs
// cannot join a lockstep batch (the batch shares one from-the-start
// instruction stream), so with Batching on they run alone — and their
// results match a batching-off runner bit for bit, while sitting in the
// same sweep as batchable full-detail specs.
func TestFidelitySpecsRunAsSingletonsUnderBatching(t *testing.T) {
	if key, ok := (&Spec{Workload: "mcf", FastForward: 100}).batchKey(); ok {
		t.Fatalf("fast-forwarded spec joined batch group %q", key)
	}
	specs := []Spec{
		{Workload: "mcf", Scale: 0, Engine: EngineNone},
		{Workload: "mcf", Scale: 0, Engine: EngineRGID,
			FastForward: 1000, DetailedWindow: 500, SamplePeriods: 3},
		{Workload: "mcf", Scale: 0, Engine: EngineRGID},
	}
	batched, err := (&Runner{Jobs: 1, Batching: true}).Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := (&Runner{Jobs: 1}).Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if !reflect.DeepEqual(batched[i].Stats, plain[i].Stats) {
			t.Errorf("%s: batched sweep stats differ from unbatched", batched[i].Key)
		}
	}
	if batched[1].ExtrapolatedIPC != plain[1].ExtrapolatedIPC {
		t.Error("fidelity member differs between batched and unbatched sweeps")
	}
}

// TestFidelityPanicFailsJob: a panic midway through a sampled run, after
// the result already holds partial counters, must still fail the job
// rather than report those counters as a finished result.
func TestFidelityPanicFailsJob(t *testing.T) {
	r := &Runner{Jobs: 1, OnWindow: func(int, string, int, int) { panic("window hook") }}
	res, err := r.Run(context.Background(), []Spec{{Workload: "mcf", Scale: 0, Engine: EngineRGID,
		NoCheckpoint: true, FastForward: 1000, DetailedWindow: 500, SamplePeriods: 3}})
	if err == nil || res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "window hook") {
		t.Fatalf("panicking sampled run: err %v, result err %v; want the panic", err, res[0].Err)
	}
}
