package sim

import (
	"strings"
	"testing"

	"mssr/internal/core"
	"mssr/internal/reuse"
	"mssr/internal/workloads"
)

func TestSpecKeyCanonical(t *testing.T) {
	cases := []struct {
		spec Spec
		want string
	}{
		{Spec{Workload: "bfs", Scale: 1}, "bfs/none"},
		{Spec{Workload: "bfs", Scale: 1, Engine: EngineRGID, Streams: 4, Entries: 64}, "bfs/rgid-4x64"},
		{Spec{Workload: "bfs", Scale: 1, Engine: EngineRGID}, "bfs/rgid-4x64"}, // defaults fill in
		{Spec{Workload: "bfs", Scale: 2, Engine: EngineRI, Sets: 128, Ways: 2}, "bfs@s2/ri-128s2w"},
		{Spec{Workload: "cc", Scale: 1, Engine: EngineDIRValue}, "cc/dir-value-64s4w"},
		{Spec{Workload: "cc", Scale: 1, Engine: EngineDIRName, Loads: LoadBloom}, "cc/dir-name-64s4w+loads=bloom"},
		{Spec{Workload: "bfs", Scale: 1, Check: true}, "bfs/none+check"},
		{Spec{Workload: "bfs", Scale: 1, TuneKey: "wide", Tune: func(*core.Config) {}}, "bfs/none+wide"},
		{Spec{Label: "override", Workload: "bfs"}, "override"},
	}
	for _, c := range cases {
		if got := c.spec.Key(); got != c.want {
			t.Errorf("Key() = %q, want %q", got, c.want)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	p, err := workloads.Build("nested-mispred", 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name string
		spec Spec
	}{
		{"empty", Spec{}},
		{"both program and workload", Spec{Workload: "bfs", Program: p}},
		{"unknown workload", Spec{Workload: "no-such-benchmark"}},
		{"unknown engine", Spec{Workload: "bfs", Engine: Engine(42)}},
		{"negative streams", Spec{Workload: "bfs", Engine: EngineRGID, Streams: -1}},
		{"negative scale", Spec{Workload: "bfs", Scale: -2}},
		{"negative timeout", Spec{Workload: "bfs", Timeout: -1}},
		{"tune without key", Spec{Workload: "bfs", Tune: func(*core.Config) {}}},
		{"window without fast-forward", Spec{Workload: "bfs", DetailedWindow: 1000}},
		{"periods without window", Spec{Workload: "bfs", FastForward: 1000, SamplePeriods: 4}},
		{"negative sample periods", Spec{Workload: "bfs", FastForward: 1000, DetailedWindow: 100, SamplePeriods: -1}},
		{"warm without fast-forward", Spec{Workload: "bfs", Warm: true}},
		{"warm with phase selection", Spec{Workload: "bfs", FastForward: 1000, DetailedWindow: 100, SamplePeriods: 8,
			Warm: true, PhaseSelect: PhaseKMeans}},
	}
	for _, c := range bad {
		if err := c.spec.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", c.name)
		}
	}
	good := []Spec{
		{Workload: "bfs"},
		{Program: p, Engine: EngineRGID, Streams: 2, Entries: 32},
		{Workload: "cc", Engine: EngineDIRName, Loads: LoadNoReuse, Check: true},
		{Workload: "bfs", FastForward: 1000}, // exact skip-then-detail
		{Workload: "bfs", FastForward: 1000, DetailedWindow: 100, SamplePeriods: 8, Warm: true},
		{Workload: "bfs", FastForward: 1000, SamplePeriods: 1}, // 1 == the default single period
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("good[%d]: Validate() = %v", i, err)
		}
	}
}

func TestParseRoundTrips(t *testing.T) {
	for _, e := range []Engine{EngineNone, EngineRGID, EngineRI, EngineDIRValue, EngineDIRName} {
		got, err := ParseEngine(e.String())
		if err != nil || got != e {
			t.Errorf("ParseEngine(%q) = %v, %v", e, got, err)
		}
	}
	if _, err := ParseEngine("warp-drive"); err == nil {
		t.Error("ParseEngine accepted nonsense")
	}
	for _, s := range []string{"verify", "bloom", "none"} {
		p, err := ParseLoadPolicy(s)
		if err != nil || p.String() != s {
			t.Errorf("ParseLoadPolicy(%q) = %v, %v", s, p, err)
		}
	}
	if _, err := ParseLoadPolicy("yolo"); err == nil {
		t.Error("ParseLoadPolicy accepted nonsense")
	}
}

func TestSpecConfig(t *testing.T) {
	s := Spec{Workload: "bfs", Engine: EngineRGID, Streams: 2, Entries: 128, Loads: LoadBloom, Check: true}
	cfg, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Reuse != core.ReuseMultiStream || cfg.MS.Streams != 2 || cfg.MS.LogEntries != 128 {
		t.Errorf("rgid config wrong: %+v", cfg.MS)
	}
	if cfg.MS.WPBEntries != 32 {
		t.Errorf("WPBEntries = %d, want logEntries/4", cfg.MS.WPBEntries)
	}
	if cfg.MS.LoadPolicy != reuse.LoadBloom || !cfg.DebugCheck {
		t.Error("load policy / checker not applied")
	}

	s = Spec{Workload: "bfs", Engine: EngineRI, Sets: 128, Ways: 1}
	cfg, err = s.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Reuse != core.ReuseRI || cfg.RI.Sets != 128 || cfg.RI.Ways != 1 {
		t.Errorf("ri config wrong: %+v", cfg.RI)
	}

	s = Spec{Workload: "bfs", Engine: EngineDIRName, TuneKey: "tiny-rob", Tune: func(c *core.Config) { c.ROBSize = 16 }}
	cfg, err = s.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Reuse != core.ReuseDIR || cfg.DIR.Scheme != reuse.DIRName {
		t.Errorf("dir config wrong: %+v", cfg.DIR)
	}
	if cfg.ROBSize != 16 {
		t.Error("Tune not applied")
	}
}

func TestSpecBuildProgram(t *testing.T) {
	s := Spec{Workload: "nested-mispred", Scale: 0}
	p, err := s.BuildProgram()
	if err != nil || p == nil {
		t.Fatalf("BuildProgram: %v", err)
	}
	s2 := Spec{Program: p}
	p2, err := s2.BuildProgram()
	if err != nil || p2 != p {
		t.Fatal("pre-built program not returned verbatim")
	}
	s3 := Spec{Workload: "no-such-benchmark"}
	if _, err := s3.BuildProgram(); err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("unknown workload error = %v", err)
	}
}
