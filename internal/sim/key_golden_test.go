package sim

import (
	"testing"
	"time"

	"mssr/internal/core"
	"mssr/internal/isa"
)

// TestCanonicalKeyGolden pins the exact canonical-key strings for a
// representative spec grid. These strings are a persistence format, not
// just an in-memory identity: the daemon's result cache, the on-disk
// store (internal/store) and the fleet's shard placement
// (internal/fleet) are all keyed on them, so changing how a key renders
// silently invalidates every stored result and re-homes every shard.
// Any diff here must be deliberate and release-noted; it is never a
// harmless refactor.
func TestCanonicalKeyGolden(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"workload only, smoke scale", Spec{Workload: "mcf"}, "mcf@s0/none"},
		{"paper scale elides the suffix", Spec{Workload: "mcf", Scale: 1}, "mcf/none"},
		{"explicit larger scale", Spec{Workload: "mcf", Scale: 3}, "mcf@s3/none"},
		{"rgid default geometry", Spec{Workload: "bfs", Engine: EngineRGID}, "bfs@s0/rgid-4x64"},
		{"rgid explicit default geometry renders identically",
			Spec{Workload: "bfs", Engine: EngineRGID, Streams: 4, Entries: 64}, "bfs@s0/rgid-4x64"},
		{"rgid wide geometry", Spec{Workload: "bfs", Engine: EngineRGID, Streams: 8, Entries: 128}, "bfs@s0/rgid-8x128"},
		{"ri default geometry", Spec{Workload: "pr", Engine: EngineRI}, "pr@s0/ri-64s4w"},
		{"dir-value", Spec{Workload: "astar", Engine: EngineDIRValue, Sets: 32, Ways: 2}, "astar@s0/dir-value-32s2w"},
		{"dir-name", Spec{Workload: "astar", Engine: EngineDIRName, Sets: 32, Ways: 2}, "astar@s0/dir-name-32s2w"},
		{"verified loads", Spec{Workload: "mcf", Engine: EngineRGID, Loads: LoadVerify}, "mcf@s0/rgid-4x64+loads=verify"},
		{"bloom loads", Spec{Workload: "mcf", Engine: EngineRGID, Loads: LoadBloom}, "mcf@s0/rgid-4x64+loads=bloom"},
		{"no load reuse", Spec{Workload: "mcf", Engine: EngineRGID, Loads: LoadNoReuse}, "mcf@s0/rgid-4x64+loads=none"},
		{"lockstep checker", Spec{Workload: "mcf", Engine: EngineRGID, Check: true}, "mcf@s0/rgid-4x64+check"},
		{"architectural verify", Spec{Workload: "mcf", Engine: EngineRGID, VerifyArch: true}, "mcf@s0/rgid-4x64+verify"},
		{"sampled", Spec{Workload: "mcf", Engine: EngineRGID, SampleInterval: 4096}, "mcf@s0/rgid-4x64+iv4096"},
		{"sampled with window",
			Spec{Workload: "mcf", Engine: EngineRGID, SampleInterval: 4096, SampleWindow: 32}, "mcf@s0/rgid-4x64+iv4096w32"},
		{"every modifier at once",
			Spec{Workload: "nested-mispred", Scale: 2, Engine: EngineRGID, Streams: 4, Entries: 64,
				Loads: LoadVerify, Check: true, VerifyArch: true, SampleInterval: 1024, SampleWindow: 8},
			"nested-mispred@s2/rgid-4x64+loads=verify+check+verify+iv1024w8"},
		{"fast-forward only (exact skip-then-detail)",
			Spec{Workload: "mcf", Engine: EngineRGID, FastForward: 50000}, "mcf@s0/rgid-4x64+ff50000"},
		{"fast-forward with one bounded window",
			Spec{Workload: "mcf", Engine: EngineRGID, FastForward: 50000, DetailedWindow: 5000},
			"mcf@s0/rgid-4x64+ff50000+dw5000"},
		{"sampled periods",
			Spec{Workload: "mcf", Engine: EngineRGID, FastForward: 50000, DetailedWindow: 5000, SamplePeriods: 8},
			"mcf@s0/rgid-4x64+ff50000+dw5000+sp8"},
		{"single period elides the sp suffix",
			Spec{Workload: "mcf", Engine: EngineRGID, FastForward: 50000, DetailedWindow: 5000, SamplePeriods: 1},
			"mcf@s0/rgid-4x64+ff50000+dw5000"},
		{"warmed fast-forward",
			Spec{Workload: "mcf", Engine: EngineRGID, FastForward: 50000, DetailedWindow: 5000, SamplePeriods: 8, Warm: true},
			"mcf@s0/rgid-4x64+ff50000+dw5000+sp8+warm"},
		{"fidelity composes after sampling, before tune",
			Spec{Workload: "mcf", Engine: EngineRGID, SampleInterval: 4096, FastForward: 50000,
				DetailedWindow: 5000, SamplePeriods: 4, Warm: true, TuneKey: "wide", Tune: func(c *core.Config) {}},
			"mcf@s0/rgid-4x64+iv4096+ff50000+dw5000+sp4+warm+wide"},
		{"label never leaks into the key",
			Spec{Label: "table1-row3", Workload: "mcf", Engine: EngineRGID}, "mcf@s0/rgid-4x64"},
		{"timeout never leaks into the key",
			Spec{Workload: "mcf", Engine: EngineRGID, Timeout: time.Minute}, "mcf@s0/rgid-4x64"},
		{"phase-selected sampling",
			Spec{Workload: "mcf", Engine: EngineRGID, FastForward: 50000, DetailedWindow: 5000,
				SamplePeriods: 48, PhaseSelect: PhaseKMeans},
			"mcf@s0/rgid-4x64+ff50000+dw5000+sp48+phase=kmeans"},
		{"uniform phase mode elides the suffix",
			Spec{Workload: "mcf", Engine: EngineRGID, FastForward: 50000, DetailedWindow: 5000,
				SamplePeriods: 48, PhaseSelect: PhaseUniform},
			"mcf@s0/rgid-4x64+ff50000+dw5000+sp48"},
		{"adaptive stopping bound",
			Spec{Workload: "mcf", Engine: EngineRGID, FastForward: 50000, DetailedWindow: 5000,
				SamplePeriods: 48, MaxErr: 0.02},
			"mcf@s0/rgid-4x64+ff50000+dw5000+sp48+maxerr0.02"},
		{"checkpoints disabled",
			Spec{Workload: "mcf", Engine: EngineRGID, FastForward: 50000, DetailedWindow: 5000,
				SamplePeriods: 48, Warm: true, NoCheckpoint: true},
			"mcf@s0/rgid-4x64+ff50000+dw5000+sp48+warm+nockpt"},
		{"every fidelity modifier at once",
			Spec{Workload: "mcf", Scale: 2, Engine: EngineRGID, FastForward: 50000, DetailedWindow: 5000,
				SamplePeriods: 48, Warm: true, PhaseSelect: PhaseKMeans, MaxErr: 0.015, NoCheckpoint: true},
			"mcf@s2/rgid-4x64+ff50000+dw5000+sp48+warm+phase=kmeans+maxerr0.015+nockpt"},
	}
	for _, tc := range cases {
		if got := tc.spec.CanonicalKey(); got != tc.want {
			t.Errorf("%s: CanonicalKey() = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestCheckpointKeyGolden pins the checkpoint-family and shard keys.
// CheckpointKey names persisted functional states (the daemon's disk
// tier outlives processes), and ShardKey decides fleet placement, so
// both render formats are as frozen as the canonical key itself.
func TestCheckpointKeyGolden(t *testing.T) {
	cases := []struct {
		name                string
		spec                Spec
		wantCkpt, wantShard string
	}{
		{"program identity only, config stripped",
			Spec{Workload: "mcf", Engine: EngineRGID, Streams: 8, Entries: 128,
				FastForward: 50000, DetailedWindow: 5000, SamplePeriods: 48, Warm: true},
			"mcf@s0", "mcf@s0"},
		{"paper scale elides the suffix",
			Spec{Workload: "mcf", Scale: 1, Engine: EngineRGID, FastForward: 50000},
			"mcf", "mcf"},
		{"phase selection and bounds stay out of the checkpoint family",
			Spec{Workload: "astar", Scale: 2, Engine: EngineRI, FastForward: 50000,
				DetailedWindow: 5000, SamplePeriods: 48, PhaseSelect: PhaseKMeans, MaxErr: 0.02},
			"astar@s2", "astar@s2"},
		{"full-detail work shards on the canonical key",
			Spec{Workload: "mcf", Engine: EngineRGID},
			"mcf@s0", "mcf@s0/rgid-4x64"},
		{"opting out of checkpoints shards on the canonical key",
			Spec{Workload: "mcf", Engine: EngineRGID, FastForward: 50000, DetailedWindow: 5000,
				SamplePeriods: 48, NoCheckpoint: true},
			"mcf@s0", "mcf@s0/rgid-4x64+ff50000+dw5000+sp48+nockpt"},
	}
	for _, tc := range cases {
		if got := tc.spec.CheckpointKey(); got != tc.wantCkpt {
			t.Errorf("%s: CheckpointKey() = %q, want %q", tc.name, got, tc.wantCkpt)
		}
		if got := tc.spec.ShardKey(); got != tc.wantShard {
			t.Errorf("%s: ShardKey() = %q, want %q", tc.name, got, tc.wantShard)
		}
	}
}

// TestProfileKeyGolden pins the store key of a phase profile. Profiles
// persist in disk checkpoint stores next to the checkpoints, and the
// benchmark harness formats this key by hand to find them, so its
// rendering is as frozen as the checkpoint key's.
func TestProfileKeyGolden(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"geometry only, config stripped",
			Spec{Workload: "mcf", Engine: EngineRI, FastForward: 3000, DetailedWindow: 1500, SamplePeriods: 8,
				PhaseSelect: PhaseKMeans, MaxErr: 0.02},
			"mcf@s0#profile1+ff3000+dw1500+sp8"},
		{"paper scale elides the suffix",
			Spec{Workload: "bzip2", Scale: 1, FastForward: 50000, DetailedWindow: 5000, SamplePeriods: 48},
			"bzip2#profile1+ff50000+dw5000+sp48"},
		{"a pre-built program keys on its name",
			Spec{Program: &isa.Program{Name: "astar"}, FastForward: 4505, DetailedWindow: 287, SamplePeriods: 48},
			"astar#profile1+ff4505+dw287+sp48"},
	}
	for _, tc := range cases {
		if got := profileKey(&tc.spec); got != tc.want {
			t.Errorf("%s: profileKey() = %q, want %q", tc.name, got, tc.want)
		}
	}
}
