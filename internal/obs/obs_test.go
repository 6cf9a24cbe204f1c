package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mssr/internal/stats"
)

func snapAt(cycle, retired, hits uint64) Snapshot {
	return Snapshot{
		Cycle:     cycle,
		Retired:   retired,
		ReuseHits: hits,
		Branches:  retired / 4,
		L1DHits:   retired / 2,
		L1DMisses: retired / 8,
	}
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
	if first.Start != 0 || first.End != 100 || first.Retired != 80 || first.ReuseHits != 8 {
		t.Errorf("first interval wrong: %+v", first)
	}
	if second.Start != 100 || second.End != 200 || second.Retired != 160 || second.ReuseHits != 32 {
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
	if tail.Start != 100 || tail.End != 137 || tail.Retired != 30 {
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
	var cycle, retired uint64
	allocs := testing.AllocsPerRun(100, func() {
		cycle += 100
		retired += 73
		s.Record(snapAt(cycle, retired, retired/10))
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
	if iv := s.Intervals()[0]; iv.Start != 0 || iv.Retired != 5 {
		t.Errorf("post-Reset interval not measured from zero: %+v", iv)
	}
}

func TestSnapshotOfMirrorsStats(t *testing.T) {
	st := &stats.Stats{
		Retired: 7, Fetched: 9, Flushes: 2,
		Branches: 3, BranchMispredicts: 1, JumpMispredicts: 1,
		ReuseTests: 5, ReuseHits: 4, SquashedStreams: 2, Reconvergences: 2, RGIDResets: 1,
		L1DHits: 6, L1DMisses: 2, L2Hits: 1, L2Misses: 1, DRAMAccesses: 1,
	}
	snap := SnapshotOf(42, st)
	if snap.Cycle != 42 || snap.Retired != 7 || snap.ReuseHits != 4 ||
		snap.L1DMisses != 2 || snap.DRAMAccesses != 1 || snap.RGIDResets != 1 {
		t.Errorf("snapshot does not mirror stats: %+v", snap)
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
