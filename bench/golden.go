package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"

	"mssr/internal/sim"
	"mssr/internal/stats"
)

// goldenJSON holds the committed reference outputs of the sweeps. The
// simulator is deterministic, so every run — untraced, traced, at any
// seed — must reproduce them exactly.
//
//go:embed golden.json
var goldenJSON []byte

// golden maps goldenKey(...) to the expected outcome of one spec.
type golden struct {
	Specs map[string]goldenSpec `json:"specs"`
}

// goldenSpec is one spec's reference outcome. Digest covers every
// counter of the result's Stats. The sampled fields are set for
// sampled specs only; FullIPC is the full-detail rgid-4x64 IPC of the
// program, the reference the sampled estimate is judged against.
type goldenSpec struct {
	Retired      uint64  `json:"retired"`
	Cycles       uint64  `json:"cycles"`
	Digest       string  `json:"digest"`
	Windows      int     `json:"windows,omitempty"`
	TotalRetired uint64  `json:"total_retired,omitempty"`
	SampledIPC   float64 `json:"sampled_ipc,omitempty"`
	FullIPC      float64 `json:"full_ipc,omitempty"`
}

func goldenKey(scale int, kind, program, config string) string {
	k := fmt.Sprintf("s%d/%s/%s", scale, kind, program)
	if config != "" {
		k += "/" + config
	}
	return k
}

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

// statsDigest fingerprints every counter of a run.
func statsDigest(st *stats.Stats) string {
	b, _ := json.Marshal(st)
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

func specOutcome(res *sim.Result) goldenSpec {
	g := goldenSpec{Digest: statsDigest(res.Stats), Retired: res.Stats.Retired, Cycles: res.Stats.Cycles}
	if res.Spec.FastForward > 0 {
		g.Windows, g.TotalRetired, g.SampledIPC = res.Windows, res.TotalRetired, res.ExtrapolatedIPC
	}
	return g
}

// check compares one result with its golden entry; it returns a
// description of the first difference, or "".
func (g *golden) check(key string, got goldenSpec) string {
	want, ok := g.Specs[key]
	if !ok {
		return key + ": no golden entry (regenerate with -update-golden)"
	}
	got.FullIPC = want.FullIPC
	if got != want {
		return fmt.Sprintf("%s: got %+v, golden %+v", key, got, want)
	}
	return ""
}

// writeGolden runs every sweep once at the standard and the smoke scale
// and records the outcomes.
func writeGolden(path string) error {
	ctx := context.Background()
	g := golden{Specs: map[string]goldenSpec{}}
	for _, scale := range []int{1, 0} {
		progs, _, err := buildPrograms(scale, 1)
		if err != nil {
			return err
		}
		full := map[string]float64{}
		grid := gridPass(progs, rand.Perm(len(progs)))
		res, err := (&sim.Runner{Jobs: sweepJobs, Batching: true}).Run(ctx, grid.specs)
		if err != nil {
			return err
		}
		for i := range res {
			key := goldenKey(scale, kindGrid, grid.program[i], grid.config[i])
			g.Specs[key] = specOutcome(&res[i])
			if grid.config[i] == fullRefConfig {
				full[grid.program[i]] = res[i].Stats.IPC()
			}
		}
		for _, kind := range []string{kindUniform, kindKMeans} {
			specs := sampledSpecs(progs, kind)
			r := sampledRunner(kind)
			if kind == kindKMeans {
				if _, err := r.Run(ctx, specs); err != nil { // profile + capture
					return err
				}
			}
			res, err := r.Run(ctx, specs)
			if err != nil {
				return err
			}
			for i, p := range progs {
				o := specOutcome(&res[i])
				o.FullIPC = full[p.name]
				g.Specs[goldenKey(scale, kind, p.name, "")] = o
			}
		}
	}
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d golden specs to %s\n", len(g.Specs), path)
	return nil
}
