package api_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"mssr/internal/api"
	"mssr/internal/events"
	"mssr/internal/obs"
	"mssr/internal/sim"
	"mssr/internal/stats"
)

// FuzzSpecRoundTrip drives arbitrary wire JSON through the conversions a
// fleet coordinator performs: decode, Sim, Validate and CanonicalKey must
// not panic, and a valid spec sent back over the wire (FromSim, then Sim
// on the worker) must keep its canonical and shard keys — the identities
// the coordinator caches and places by, and the worker caches by.
func FuzzSpecRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var ws api.Spec
		if json.Unmarshal(data, &ws) != nil {
			return
		}
		sp, err := ws.Sim()
		if err != nil {
			return
		}
		verr := sp.Validate()
		key := sp.CanonicalKey()
		if verr != nil {
			return
		}
		wire, err := api.FromSim(sp)
		if err != nil {
			t.Fatalf("FromSim rejected a wire-born spec: %v", err)
		}
		back, err := wire.Sim()
		if err != nil {
			t.Fatalf("re-encoded spec %+v does not decode: %v", wire, err)
		}
		if got := back.CanonicalKey(); got != key {
			t.Fatalf("canonical key changed over the wire: %q -> %q", key, got)
		}
		if got, want := back.ShardKey(), sp.ShardKey(); got != want {
			t.Fatalf("shard key changed over the wire: %q -> %q", want, got)
		}
	})
}

// TestResultSimRoundTripPreservesContent pins the other half of a fleet
// hop: a worker's wire result, turned into a sim.Result (with the spec
// that produced it) and back, is the same result.
func TestResultSimRoundTripPreservesContent(t *testing.T) {
	full := sim.Spec{Workload: "bfs", Engine: sim.EngineRGID, Streams: 4, Entries: 64, SampleInterval: 512}
	sampled := sim.Spec{Workload: "mcf", Scale: 0, FastForward: 400, DetailedWindow: 200, SamplePeriods: 4}
	st := &stats.Stats{Cycles: 4200, Retired: 3150, Flushes: 7}
	cases := []struct {
		name string
		spec sim.Spec
		res  api.Result
	}{
		{"full", full, api.Result{
			Index: 2, Key: "label", Source: api.SourceRun, Program: "bfs", Engine: "rgid-4x64",
			Cycles: st.Cycles, Retired: st.Retired, IPC: st.IPC(), MIPS: 1.5, WallNS: 7e6, Stats: st,
			Intervals: []obs.Interval{ // the first counter is retired
				{Index: 0, Start: 0, End: 512, Counters: [len(stats.IntervalCounters)]uint64{300}},
				{Index: 1, Start: 512, End: 1024, Counters: [len(stats.IntervalCounters)]uint64{280}, ReuseRate: 5e-05},
			},
			IntervalsDropped: 1,
		}},
		{"sampled", sampled, api.Result{
			Key: sampled.CanonicalKey(), Source: api.SourceCache, Program: "mcf", Engine: "none",
			Cycles: st.Cycles, Retired: st.Retired, IPC: st.IPC(), Stats: st,
			Extrapolated: true, Windows: 4, FastForwarded: 120000, TotalRetired: 123150,
			ExtrapolatedIPC: 1.875, IPCErrorEst: 0.013, CkptHits: 3, CkptMisses: 2, FFExecuted: 600,
		}},
		{"error", full, api.Result{
			Index: 1, Key: full.CanonicalKey(), Source: api.SourceRun, WallNS: 1, Error: "context deadline exceeded",
		}},
	}
	seen := make(map[string]bool)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.res.CacheKey = tc.spec.CanonicalKey()
			sr := tc.res.Sim()
			sr.Spec = tc.spec
			back := api.ResultFromSim(sr, tc.res.Source)
			want, _ := json.Marshal(tc.res)
			got, _ := json.Marshal(back)
			if string(got) != string(want) {
				t.Errorf("result changed over the round trip:\n  got  %s\n  want %s", got, want)
			}
			v := reflect.ValueOf(tc.res)
			for i := 0; i < v.NumField(); i++ {
				if !v.Field(i).IsZero() {
					seen[v.Type().Field(i).Name] = true
				}
			}
		})
	}
	// Every wire field is exercised by some case, so a field added to
	// api.Result without a sim.Result counterpart fails here.
	typ := reflect.TypeOf(api.Result{})
	for i := 0; i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; !seen[name] {
			t.Errorf("no case sets api.Result.%s", name)
		}
	}
}

// TestIntervalEncodedAlike pins one JSON encoding per interval: a live
// /v1/events frame, a result on the wire and a -stats-out NDJSON line
// carry the same bytes, down to a rate small enough that strconv's 'g'
// and encoding/json disagree on it (5e-05 against 0.00005).
func TestIntervalEncodedAlike(t *testing.T) {
	iv := obs.Interval{Index: 1, Start: 512, End: 1024, ReuseRate: 5e-05, Mode: obs.ModeDetail, Window: 3}
	iv.Counters[0] = 20000
	want := string(iv.AppendJSON(nil))
	if !strings.Contains(want, `"reuse_rate":0.00005,`) {
		t.Errorf("the rate does not print as encoding/json prints it: %s", want)
	}

	ev := events.Event{Seq: 1, Type: events.TypeInterval, Key: "k", Interval: iv}
	frame, err := json.Marshal(&ev)
	if err != nil {
		t.Fatal(err)
	}
	if _, got, _ := strings.Cut(strings.TrimSuffix(string(frame), "}"), `"interval":`); got != want {
		t.Errorf("event frame carries\n%s\nwant\n%s", got, want)
	}

	res, err := json.Marshal(api.Result{Key: "k", Intervals: []obs.Interval{iv}})
	if err != nil {
		t.Fatal(err)
	}
	if _, got, _ := strings.Cut(string(res), `"intervals":[`); !strings.HasPrefix(got, want+"]") {
		t.Errorf("result carries\n%s\nwant\n%s]", got, want)
	}

	var nd bytes.Buffer
	s := sim.NewIntervalStream(&nd)
	s.OnFinish(0, 1, sim.Result{Key: "k", Intervals: []obs.Interval{iv}})
	if got := "{" + strings.TrimPrefix(nd.String(), `{"key":"k",`); got != want+"\n" {
		t.Errorf("NDJSON line is\n%s\nwant\n%s", nd.String(), want)
	}
}
