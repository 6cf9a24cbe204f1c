package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mssr/internal/stats"
)

func snapAt(cycle, retired, hits uint64) Snapshot {
	return SnapshotOf(cycle, &stats.Stats{
		Retired:   retired,
		ReuseHits: hits,
		Branches:  retired / 4,
		L1DHits:   retired / 2,
		L1DMisses: retired / 8,
	})
}

// counterIndex returns the position of the interval counter named name.
func counterIndex(t *testing.T, name string) int {
	t.Helper()
	for i, c := range stats.IntervalCounters {
		if c.Name == name {
			return i
		}
	}
	t.Fatalf("no interval counter is named %q", name)
	return 0
}

// counter returns the interval's delta of the counter named name.
func counter(t *testing.T, iv Interval, name string) uint64 {
	t.Helper()
	return iv.Counters[counterIndex(t, name)]
}

func TestSamplerDeltasAndRates(t *testing.T) {
	s := NewSampler(100, 8)
	s.Record(snapAt(100, 80, 8))
	s.Record(snapAt(200, 240, 40))
	ivs := s.Intervals()
	if len(ivs) != 2 {
		t.Fatalf("got %d intervals, want 2", len(ivs))
	}
	first, second := ivs[0], ivs[1]
	if first.Start != 0 || first.End != 100 || counter(t, first, "retired") != 80 || counter(t, first, "reuse_hits") != 8 {
		t.Errorf("first interval wrong: %+v", first)
	}
	if second.Start != 100 || second.End != 200 || counter(t, second, "retired") != 160 || counter(t, second, "reuse_hits") != 32 {
		t.Errorf("second interval wrong: %+v", second)
	}
	if got, want := second.IPC, 1.6; got != want {
		t.Errorf("IPC = %v, want %v", got, want)
	}
	if got, want := second.ReuseRate, 0.2; got != want {
		t.Errorf("ReuseRate = %v, want %v", got, want)
	}
	if second.L1DMissRate <= 0 || second.L1DMissRate >= 1 {
		t.Errorf("L1DMissRate = %v, want in (0,1)", second.L1DMissRate)
	}
}

func TestSamplerFlushPartial(t *testing.T) {
	s := NewSampler(100, 8)
	s.Record(snapAt(100, 80, 8))
	s.Flush(snapAt(137, 110, 11)) // 37-cycle tail
	ivs := s.Intervals()
	if len(ivs) != 2 {
		t.Fatalf("got %d intervals, want 2 (boundary + partial tail)", len(ivs))
	}
	tail := ivs[1]
	if tail.Start != 100 || tail.End != 137 || counter(t, tail, "retired") != 30 {
		t.Errorf("partial tail wrong: %+v", tail)
	}
	// A flush exactly on a boundary must not add an empty interval.
	s.Flush(snapAt(137, 110, 11))
	if got := s.Total(); got != 2 {
		t.Errorf("boundary flush recorded an empty interval: total %d", got)
	}
}

func TestSamplerRingOverwrite(t *testing.T) {
	s := NewSampler(10, 4)
	for i := uint64(1); i <= 10; i++ {
		s.Record(snapAt(10*i, i, 0))
	}
	if s.Total() != 10 || s.Len() != 4 || s.Dropped() != 6 {
		t.Fatalf("total/len/dropped = %d/%d/%d, want 10/4/6", s.Total(), s.Len(), s.Dropped())
	}
	ivs := s.Intervals()
	for i, iv := range ivs {
		if want := 6 + i; iv.Index != want {
			t.Errorf("retained interval %d has index %d, want %d (oldest overwritten)", i, iv.Index, want)
		}
	}
	if ivs[0].Start != 60 || ivs[len(ivs)-1].End != 100 {
		t.Errorf("retained window [%d,%d), want [60,100)", ivs[0].Start, ivs[len(ivs)-1].End)
	}
}

func TestSamplerRecordDoesNotAllocate(t *testing.T) {
	s := NewSampler(100, 16)
	st := &stats.Stats{} // long-lived, as a core's counters are
	var cycle uint64
	allocs := testing.AllocsPerRun(100, func() {
		cycle += 100
		st.Retired += 73
		st.ReuseHits = st.Retired / 10
		s.Record(SnapshotOf(cycle, st))
	})
	if allocs != 0 {
		t.Errorf("Record allocated %.1f objects per call, want 0", allocs)
	}
}

func TestSamplerResetKeepsRing(t *testing.T) {
	s := NewSampler(10, 4)
	s.Record(snapAt(10, 5, 1))
	s.Reset()
	if s.Total() != 0 || s.Len() != 0 || s.Intervals() != nil {
		t.Fatalf("Reset left state behind: total=%d", s.Total())
	}
	s.Record(snapAt(10, 5, 1))
	if iv := s.Intervals()[0]; iv.Start != 0 || counter(t, iv, "retired") != 5 {
		t.Errorf("post-Reset interval not measured from zero: %+v", iv)
	}
}

func TestSnapshotOfMirrorsStats(t *testing.T) {
	st := &stats.Stats{
		Retired: 7, Fetched: 9, Flushes: 2,
		Branches: 3, BranchMispredicts: 1, JumpMispredicts: 11,
		ReuseTests: 5, ReuseHits: 4, SquashedStreams: 12, Reconvergences: 13, RGIDResets: 14,
		L1DHits: 6, L1DMisses: 8, L2Hits: 15, L2Misses: 16, DRAMAccesses: 10,
		// Counters intervals do not carry, so a row on the wrong field
		// reads a value no interval counter holds.
		Cycles: 17, ReusedLoads: 18, L1DEvictions: 19, L2Evictions: 20,
	}
	want := map[string]uint64{
		"retired": 7, "fetched": 9, "flushes": 2,
		"branches": 3, "branch_mispredicts": 1, "jump_mispredicts": 11,
		"reuse_tests": 5, "reuse_hits": 4, "squashed_streams": 12, "reconvergences": 13, "rgid_resets": 14,
		"l1d_hits": 6, "l1d_misses": 8, "l2_hits": 15, "l2_misses": 16, "dram_accesses": 10,
	}
	if len(want) != len(stats.IntervalCounters) {
		t.Fatalf("test knows %d interval counters, the table has %d", len(want), len(stats.IntervalCounters))
	}
	snap := SnapshotOf(42, st)
	if snap.Cycle != 42 {
		t.Errorf("snapshot cycle = %d, want 42", snap.Cycle)
	}
	for name, v := range want {
		if got := snap.Counters[counterIndex(t, name)]; got != v {
			t.Errorf("snapshot %s = %d, want %d", name, got, v)
		}
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	s := NewSampler(100, 8)
	s.Record(snapAt(100, 80, 8))
	s.Record(snapAt(200, 240, 40))
	ivs := s.Intervals()

	for i := range ivs {
		line, err := json.Marshal(&ivs[i])
		if err != nil {
			t.Fatal(err)
		}
		var got Interval
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatalf("interval %d does not parse: %v", i, err)
		}
		if got != ivs[i] {
			t.Errorf("interval %d round-trip mismatch:\nwant %+v\ngot  %+v", i, ivs[i], got)
		}
		// Same interval, same bytes.
		again, err := json.Marshal(&got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line, again) {
			t.Errorf("interval %d encoding is not deterministic:\n%s\n%s", i, line, again)
		}
	}
}

func TestCSVMatchesHeader(t *testing.T) {
	s := NewSampler(100, 8)
	s.Record(snapAt(100, 80, 8))
	ivs := s.Intervals()
	if len(ivs) != 1 {
		t.Fatalf("got %d intervals, want 1", len(ivs))
	}
	cols := strings.Split(CSVHeader(), ",")
	row := strings.Split(ivs[0].CSVRow(), ",")
	if len(cols) != len(row) {
		t.Fatalf("header has %d columns, row has %d", len(cols), len(row))
	}
	if cols[0] != "index" || cols[len(cols)-1] != "window" {
		t.Errorf("unexpected column order: %v", cols)
	}
}

// TestIntervalModeRejected: a decoded interval's mode can only be one
// CSVRow writes as a token. Any other text is refused at decode, since a
// comma or a newline in it would break the row.
func TestIntervalModeRejected(t *testing.T) {
	for _, in := range []string{
		`{"index":1,"mode":"detail,x\ny"}`,
		`{"index":1,"mode":"warm"}`,
		`{"index":1,"mode":"Detail"}`,
	} {
		var iv Interval
		if err := json.Unmarshal([]byte(in), &iv); err == nil {
			t.Errorf("%s decoded, want an error; its CSV row reads %q", in, iv.CSVRow())
		}
	}
	for _, mode := range []string{"", ModeDetail} {
		in := `{"index":1,"mode":"` + mode + `"}`
		var iv Interval
		if err := json.Unmarshal([]byte(in), &iv); err != nil || iv.Mode != mode {
			t.Errorf("%s: mode %q, error %v; want mode %q", in, iv.Mode, err, mode)
		}
	}
}

// FuzzIntervalJSON drives outside input through the interval decoder:
// worker results, relayed event frames and stored results all reach it.
// No input may panic, and an accepted one must re-encode through
// AppendJSON to bytes that decode to the same interval and re-encode to
// themselves, and render as one CSV row of CSVHeader's columns.
func FuzzIntervalJSON(f *testing.F) {
	for _, seed := range []string{
		// TestEventEncodingGolden's interval.
		`{"index":3,"start_cycle":8192,"end_cycle":12288,"retired":4096,"fetched":5000,"flushes":2,"branches":100,"branch_mispredicts":3,"jump_mispredicts":0,"reuse_tests":10,"reuse_hits":5,"squashed_streams":1,"reconvergences":1,"rgid_resets":0,"l1d_hits":900,"l1d_misses":100,"l2_hits":80,"l2_misses":20,"dram_accesses":20,"ipc":1,"reuse_rate":0.5,"mpki":0.732421875,"l1d_miss_rate":0.1,"mode":"detail","window":2}`,
		// A sampled run's interval as encoding/json wrote it from struct
		// tags, keyed as -stats-out writes it.
		`{"key":"mcf/rgid-4x64+loads=verify+verify+iv256+ff20000+dw5000+sp6+warm","index":199,"start_cycle":50944,"end_cycle":51200,"retired":23,"fetched":277,"flushes":1,"branches":4,"branch_mispredicts":1,"jump_mispredicts":0,"reuse_tests":0,"reuse_hits":0,"squashed_streams":0,"reconvergences":0,"rgid_resets":0,"l1d_hits":1,"l1d_misses":4,"l2_hits":2,"l2_misses":2,"dram_accesses":2,"ipc":0.08984375,"reuse_rate":0,"mpki":43.47826086956522,"l1d_miss_rate":0.8,"mode":"detail","window":1}`,
		`{"index":1,"retired":20000,"reuse_hits":1,"reuse_rate":5e-05}`,
		`{"index":2,"start_cycle":0,"end_cycle":512}`,
		`{"index":"3","retired":1.5}`,
		`{"retired":18446744073709551615}`,
		`{"index":1,"mode":"detail,x\ny"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var iv Interval
		if json.Unmarshal(data, &iv) != nil {
			return
		}
		enc := iv.AppendJSON(nil)
		var back Interval
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("own encoding %s does not decode: %v", enc, err)
		}
		if back != iv {
			t.Fatalf("round trip changed the interval:\ngot  %+v\nwant %+v", back, iv)
		}
		if again := back.AppendJSON(nil); !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding differs:\n%s\n%s", again, enc)
		}
		row := iv.CSVRow()
		if strings.ContainsAny(row, "\r\n") || strings.Count(row, ",") != strings.Count(CSVHeader(), ",") {
			t.Fatalf("CSV row %q does not match the header's %d columns on one line", row, strings.Count(CSVHeader(), ",")+1)
		}
	})
}
