package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkJSON is the slice of BENCHMARK.json the tests check against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONMatchesCatalog pins BENCHMARK.json to the metrics and
// workloads the program defines.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(allWorkloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != allWorkloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, allWorkloads[i].name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload at the smoke size (scale 0, one pass per
// sweep, 2 s of served traffic), untraced and traced, and checks that each run is correct and emits every metric of
// BENCHMARK.json with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bj := loadBenchmarkJSON(t)
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range allWorkloads {
		for _, trace := range []int{0, 1} {
			o := options{seed: 7, seconds: 1, trace: trace, smoke: true, workdir: t.TempDir()}
			if w.name == "served" {
				o.seconds = 2
			}
			r, err := runWorkload(w, o, g)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			if r.Failed != 0 || !r.Correct {
				t.Errorf("%s trace=%d: %d of %d failed: %v", w.name, trace, r.Failed, r.Attempted, r.Mismatches)
			}
			if ff := r.Detail["fail_frac"].Value; ff != 0 {
				t.Errorf("%s trace=%d: fail_frac %g", w.name, trace, ff)
			}
			want := map[string]string{}
			if trace == 0 {
				for _, m := range bj.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bj.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, trace, len(r.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := r.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w.name, trace, name, m, unit)
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %g, want > 0", w.name, name, m.Value)
				}
			}
			if trace == 1 && w.name == "sampled-ckpt" {
				if r.Metrics["emu.ff_instr"].Value != 0 || r.Metrics["ckpt.hits"].Value <= 0 {
					t.Errorf("sampled-ckpt: emu.ff_instr %g, ckpt.hits %g; want 0 and > 0",
						r.Metrics["emu.ff_instr"].Value, r.Metrics["ckpt.hits"].Value)
				}
			}
		}
	}
}

func sequence(seed int64, n int) []request {
	g := newGenerator(seed, specPrograms())
	out := make([]request, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// TestGeneratorDeterminism checks the served request mix: a seed fixes
// the sequence, every novel key is new, repeats name earlier keys, and
// another seed gives another sequence.
func TestGeneratorDeterminism(t *testing.T) {
	const n = 20000
	a, b := sequence(1, n), sequence(1, n)
	seen := map[string]bool{}
	novel := 0
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Novel != b[i].Novel {
			t.Fatalf("request %d differs between two runs of seed 1: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Key != canonicalKey(a[i].Spec) {
			t.Fatalf("request %d: key %s does not match its spec", i, a[i].Key)
		}
		if a[i].Novel {
			novel++
			if seen[a[i].Key] {
				t.Fatalf("request %d: novel key %s seen before", i, a[i].Key)
			}
		} else if !seen[a[i].Key] {
			t.Fatalf("request %d: repeat of unseen key %s", i, a[i].Key)
		}
		seen[a[i].Key] = true
	}
	if novel != n/novelEvery {
		t.Errorf("%d novel requests of %d, want 1 in %d", novel, n, novelEvery)
	}
	c := sequence(2, n)
	same := 0
	for i := range a {
		if a[i].Key == c[i].Key {
			same++
		}
	}
	if same == n {
		t.Error("seeds 1 and 2 give the same sequence")
	}
}

// TestGeneratorExhaustsNovelSpace runs the generator past every distinct
// novel spec: the keys stay unique and it falls back to repeats.
func TestGeneratorExhaustsNovelSpace(t *testing.T) {
	progs := specPrograms()[:1]
	g := newGenerator(3, progs)
	seen := map[string]bool{}
	for i := 0; i < novelEvery*(perProgram+10); i++ {
		r := g.next()
		if r.Novel {
			if seen[r.Key] {
				t.Fatalf("novel key %s repeated", r.Key)
			}
			seen[r.Key] = true
		}
	}
	if len(seen) != perProgram {
		t.Errorf("%d distinct novel specs, want %d", len(seen), perProgram)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mips := endToEnd[1] // higher is better
	if mips.name != "sim_mips" {
		t.Fatal("endToEnd order changed")
	}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"clear gain", base, scale(base, 1.1), "better"},
		{"within noise", base, base, "same"},
		{"regression past the bound", base, scale(base, 0.7), "worse"},
		{"too few pairs", base[:3], scale(base[:3], 1.1), "same"},
		{"spread wider than the bound", []float64{50, 150, 60, 140, 100, 55, 145, 100, 70, 130}, base, "unresolved (A's spread exceeds the bound)"},
	} {
		if got := comparePairs(tc.a, tc.b, mips).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name, cpu, commit string) string {
		rf := runFile{Results: []*Result{{Workload: "served", Host: Host{NProc: 2, GOMAXPROCS: 2, GoVersion: "go", CPU: cpu, Commit: commit},
			Metrics: map[string]Metric{}}}}
		b, _ := json.Marshal(rf)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := write("a.json", "cpu-1", "c1")
	b := write("b.json", "cpu-2", "c2")
	a2 := write("a2.json", "cpu-1", "c3")
	if err := runCompare(os.Stdout, []string{a, "--", b}); err == nil {
		t.Error("compared results from different hosts")
	}
	if err := runCompare(os.Stdout, []string{a, a2, "--", a, a}); err == nil {
		t.Error("accepted one side mixing two commits")
	}
}
