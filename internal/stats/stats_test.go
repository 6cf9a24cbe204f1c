package stats

import (
	"reflect"
	"strings"
	"testing"
)

func TestRates(t *testing.T) {
	var s Stats
	if s.IPC() != 0 || s.MispredictRate() != 0 || s.MPKI() != 0 || s.ReuseRate() != 0 {
		t.Error("zero-value rates must be zero")
	}
	s.Cycles = 100
	s.Retired = 250
	s.Branches = 50
	s.BranchMispredicts = 5
	s.JumpMispredicts = 5
	s.ReuseHits = 25
	if s.IPC() != 2.5 {
		t.Errorf("IPC = %v", s.IPC())
	}
	if s.MispredictRate() != 0.1 {
		t.Errorf("MispredictRate = %v", s.MispredictRate())
	}
	if s.MPKI() != 40 {
		t.Errorf("MPKI = %v", s.MPKI())
	}
	if s.ReuseRate() != 0.1 {
		t.Errorf("ReuseRate = %v", s.ReuseRate())
	}
}

func TestAddReconv(t *testing.T) {
	var s Stats
	s.AddReconv(ReconvSimple, 0)
	s.AddReconv(ReconvSoftware, 1)
	s.AddReconv(ReconvHardware, 2)
	s.AddReconv(ReconvHardware, -3) // clamps to 0
	s.AddReconv(ReconvSimple, 100)  // clamps to last bucket
	if s.Reconvergences != 5 {
		t.Fatalf("Reconvergences = %d", s.Reconvergences)
	}
	if s.ReconvByType[ReconvSimple] != 2 || s.ReconvByType[ReconvHardware] != 2 {
		t.Errorf("type counts = %v", s.ReconvByType)
	}
	if s.ReconvDistance[0] != 2 || s.ReconvDistance[MaxStreamDistance-1] != 1 {
		t.Errorf("distance histogram = %v", s.ReconvDistance)
	}
	if got := s.ReconvFraction(ReconvSimple); got != 0.4 {
		t.Errorf("simple fraction = %v", got)
	}
	if got := s.DistanceFraction(1); got != 0.6 {
		t.Errorf("cumulative distance(1) = %v", got)
	}
	if got := s.DistanceFraction(MaxStreamDistance + 5); got != 1.0 {
		t.Errorf("cumulative distance(all) = %v", got)
	}
}

func TestReconvTypeString(t *testing.T) {
	if ReconvSimple.String() != "simple" ||
		ReconvSoftware.String() != "software-induced" ||
		ReconvHardware.String() != "hardware-induced" {
		t.Error("bad reconvergence type names")
	}
	if !strings.Contains(ReconvType(9).String(), "9") {
		t.Error("unknown type should include the number")
	}
}

func TestSpeedup(t *testing.T) {
	base := &Stats{Cycles: 110, Retired: 100}
	fast := &Stats{Cycles: 100, Retired: 100}
	got := Speedup(base, fast)
	if got < 0.0999 || got > 0.1001 {
		t.Errorf("Speedup = %v, want 0.1", got)
	}
	if Speedup(&Stats{}, fast) != 0 || Speedup(base, &Stats{}) != 0 {
		t.Error("speedup with zero cycles must be 0")
	}
}

func TestString(t *testing.T) {
	s := &Stats{Cycles: 10, Retired: 20}
	if !strings.Contains(s.String(), "IPC=2.000") {
		t.Errorf("String() = %q", s.String())
	}
}

// TestCountersCoverStats guards the counter table. Every uint64 of Stats
// gets a distinct value, histogram buckets and RIReplacements included:
// Add into a zero Stats must reproduce all of them (so no field lacks a
// row and no two rows share one), Sub must return to zero, wire names
// must be unique, and IntervalRates must read the counters the Stats
// rate methods read.
func TestCountersCoverStats(t *testing.T) {
	want := Stats{RIReplacements: make([]uint64, 3)}
	next := uint64(1)
	v := reflect.ValueOf(&want).Elem()
	for i := range v.NumField() {
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(next)
			next++
		case reflect.Array, reflect.Slice:
			for j := range f.Len() {
				f.Index(j).SetUint(next)
				next++
			}
		default:
			t.Fatalf("Stats.%s is a %s, which neither Add nor this test covers", v.Type().Field(i).Name, f.Kind())
		}
	}

	var got Stats
	got.Add(&want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Add into a zero Stats:\ngot  %+v\nwant %+v", got, want)
	}
	got.Sub(&want)
	if zero := (Stats{RIReplacements: make([]uint64, 3)}); !reflect.DeepEqual(got, zero) {
		t.Errorf("Sub of the same Stats left %+v", got)
	}

	names := make(map[string]bool)
	for _, c := range Counters {
		if names[c.Name] {
			t.Errorf("wire name %q is used twice", c.Name)
		}
		names[c.Name] = true
	}
	if len(Counters) < len(IntervalCounters) || Counters[0].Name != IntervalCounters[0].Name {
		t.Error("Counters must start with IntervalCounters")
	}

	var d [len(IntervalCounters)]uint64
	for i, c := range IntervalCounters {
		d[i] = *c.Field(&want)
	}
	ipc, reuse, mpki, l1dMiss := IntervalRates(&d, want.Cycles)
	if ipc != want.IPC() || reuse != want.ReuseRate() || mpki != want.MPKI() || l1dMiss != want.L1DMissRate() {
		t.Errorf("IntervalRates = %v %v %v %v, want %v %v %v %v (a row moved a position it reads)",
			ipc, reuse, mpki, l1dMiss, want.IPC(), want.ReuseRate(), want.MPKI(), want.L1DMissRate())
	}
}
