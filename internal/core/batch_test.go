package core

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"testing"

	"mssr/internal/isa"
)

// batchTestNames returns the standard engine configurations in a stable
// order, so batch membership is deterministic across runs.
func batchTestNames() []string {
	cfgs := testConfigs()
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// batchTestCfg applies the equivalence-suite settings every batch test
// runs under: commit-time checking (so every member's own checker runs
// across the pacing pauses), interval sampling (so the NDJSON
// byte-identity check has a stream to compare), and a generous cycle
// ceiling.
func batchTestCfg(cfg Config) Config {
	cfg.DebugCheck = true
	cfg.MaxCycles = 50_000_000
	cfg.SampleInterval = 256
	return cfg
}

type batchRef struct {
	stats     []byte
	result    string
	intervals []byte
}

func captureRef(t *testing.T, c *Core) batchRef {
	t.Helper()
	st, err := json.Marshal(c.Stats)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := json.Marshal(c.Intervals())
	if err != nil {
		t.Fatal(err)
	}
	res, err := json.Marshal(c.Result())
	if err != nil {
		t.Fatal(err)
	}
	return batchRef{stats: st, result: string(res), intervals: iv}
}

// TestBatchedMatchesSequential is the batch driver's correctness gate:
// stepping all twelve standard configs in one lockstep batch over a
// shared instruction stream must produce Stats, final architectural
// Results and interval NDJSON byte-identical to running each config
// alone, because the members are fully independent cores.
func TestBatchedMatchesSequential(t *testing.T) {
	prog := hashyProgram(400)
	cfgs := testConfigs()
	names := batchTestNames()

	refs := make(map[string]batchRef, len(names))
	for _, name := range names {
		c := New(prog, batchTestCfg(cfgs[name]))
		if err := c.Run(); err != nil {
			t.Fatalf("sequential %s: %v", name, err)
		}
		refs[name] = captureRef(t, c)
	}

	cores := make([]*Core, len(names))
	for i, name := range names {
		cores[i] = New(prog, batchTestCfg(cfgs[name]))
	}
	b, err := NewBatch(cores, 0)
	if err != nil {
		t.Fatal(err)
	}
	errs := b.Run(context.Background())
	for i, name := range names {
		if errs[i] != nil {
			t.Fatalf("batched %s: %v", name, errs[i])
		}
		got := captureRef(t, cores[i])
		want := refs[name]
		if !bytes.Equal(got.stats, want.stats) {
			t.Errorf("%s: batched stats diverge from sequential:\nbatched:    %s\nsequential: %s", name, got.stats, want.stats)
		}
		if got.result != want.result {
			t.Errorf("%s: batched architectural result diverges:\nbatched:    %s\nsequential: %s", name, got.result, want.result)
		}
		if !bytes.Equal(got.intervals, want.intervals) {
			t.Errorf("%s: batched interval NDJSON diverges from sequential", name)
		}
	}
}

// TestBatchPooledReuse extends the fresh==Reset pooling contract to the
// batch driver: a Batch whose member cores are Reset onto a second
// program must reproduce, byte for byte, what fresh sequential cores
// produce for that program — no member, checker included, may carry
// anything across Run calls.
func TestBatchPooledReuse(t *testing.T) {
	progA := hashyProgram(300)
	progB := aliasProgram(300)
	cfgs := testConfigs()
	names := batchTestNames()

	cores := make([]*Core, len(names))
	for i, name := range names {
		cores[i] = New(progA, batchTestCfg(cfgs[name]))
	}
	b, err := NewBatch(cores, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, prog := range []*isa.Program{progA, progB} {
		for _, c := range cores {
			c.Reset(prog)
		}
		errs := b.Run(context.Background())
		for i, name := range names {
			if errs[i] != nil {
				t.Fatalf("%s/%s: %v", prog.Name, name, errs[i])
			}
			fresh := New(prog, batchTestCfg(cfgs[name]))
			if err := fresh.Run(); err != nil {
				t.Fatalf("%s/%s fresh: %v", prog.Name, name, err)
			}
			got, want := captureRef(t, cores[i]), captureRef(t, fresh)
			if !bytes.Equal(got.stats, want.stats) {
				t.Errorf("%s/%s: reused batch member diverges from fresh core:\nbatch: %s\nfresh: %s",
					prog.Name, name, got.stats, want.stats)
			}
			if got.result != want.result || !bytes.Equal(got.intervals, want.intervals) {
				t.Errorf("%s/%s: reused batch member result/intervals diverge from fresh core", prog.Name, name)
			}
		}
	}
}

// BenchmarkBatchStep measures lockstep batch throughput over the twelve
// standard configs and pins the steady-state allocation discipline
// (ReportAllocs must show 0 allocs/op once warm).
func BenchmarkBatchStep(b *testing.B) {
	prog := hashyProgram(2000)
	cfgs := testConfigs()
	names := batchTestNames()
	cores := make([]*Core, len(names))
	for i, name := range names {
		cfg := cfgs[name]
		cfg.MaxCycles = 500_000_000
		cores[i] = New(prog, cfg)
	}
	batch, err := NewBatch(cores, 0)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	run := func() uint64 {
		for _, c := range cores {
			c.Reset(prog)
		}
		for _, err := range batch.Run(ctx) {
			if err != nil {
				b.Fatal(err)
			}
		}
		var retired uint64
		for _, c := range cores {
			retired += c.Stats.Retired
		}
		return retired
	}
	retired := run() // warm-up: grow every structure once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(retired), "instrs/op")
}
