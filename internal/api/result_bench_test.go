package api_test

import (
	"encoding/json"
	"testing"

	"mssr/internal/api"
	"mssr/internal/obs"
	"mssr/internal/stats"
)

// resultWithIntervals returns a result carrying a full sampler ring of
// 1024 intervals, the most a completed run sends back, with counters and
// rates that differ from interval to interval.
func resultWithIntervals() api.Result {
	const ring = 1024
	s := obs.NewSampler(512, ring)
	st := &stats.Stats{}
	for j := uint64(1); j <= ring; j++ {
		st.Retired += 700 + j%97
		st.Fetched += 900 + j%89
		st.Flushes += j % 5
		st.Branches += 120 + j%13
		st.BranchMispredicts += j % 7
		st.JumpMispredicts += j % 3
		st.ReuseTests += 40 + j%11
		st.ReuseHits += j % 23
		st.SquashedStreams += j % 4
		st.Reconvergences += j % 3
		st.RGIDResets += j / 1000
		st.L1DHits += 300 + j%31
		st.L1DMisses += 20 + j%17
		st.L2Hits += 10 + j%9
		st.L2Misses += j % 8
		st.DRAMAccesses += j % 8
		s.Record(obs.SnapshotOf(512*j, st))
	}
	return api.Result{Key: "bfs/rgid-4x64", Source: api.SourceRun, Program: "bfs", Intervals: s.Intervals()}
}

// BenchmarkResultIntervalsJSON measures a worker result's interval
// stream over the wire: Encode as a daemon writes it, Decode as a
// coordinator or client reads it back.
func BenchmarkResultIntervalsJSON(b *testing.B) {
	res := resultWithIntervals()
	wire, err := json.Marshal(&res)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Encode", func(b *testing.B) {
		b.SetBytes(int64(len(wire)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(&res); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Decode", func(b *testing.B) {
		b.SetBytes(int64(len(wire)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var back api.Result
			if err := json.Unmarshal(wire, &back); err != nil {
				b.Fatal(err)
			}
		}
	})
}
