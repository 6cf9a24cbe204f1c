package events

import (
	"encoding/json"
	"testing"

	"mssr/internal/obs"
	"mssr/internal/stats"
)

// TestEventEncodingGolden pins the wire encoding byte for byte. These
// strings are the contract with every consumer — the dashboard, msrtail
// archives, fleet relays — so a diff here means the protocol changed
// and the pin must be updated deliberately.
func TestEventEncodingGolden(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
		want string
	}{
		{
			name: "lifecycle-minimal",
			ev:   Event{Seq: 1, Type: TypeJobQueued, Job: "j1", Specs: 3},
			want: `{"seq":1,"type":"job_queued","job":"j1","specs":3}`,
		},
		{
			name: "spec-done-full",
			ev: Event{
				Seq: 2, TimeNS: 1700000000000000000, Type: TypeSpecDone,
				Job: "j1", Key: "bfs/rgid", Worker: "http://w:1", Source: "run",
				Done: 2, WallMS: 12.5, IPC: 1.25,
				Extrapolated: true, ExtrapolatedIPC: 1.3, IPCErrorEst: 0.015,
			},
			want: `{"seq":2,"time_ns":1700000000000000000,"type":"spec_done","job":"j1","key":"bfs/rgid","worker":"http://w:1","source":"run","done":2,"wall_ms":12.5,"ipc":1.25,"extrapolated_ipc":1.3,"ipc_error_est":0.015,"extrapolated":true}`,
		},
		{
			// Floats print as encoding/json prints them, as an interval's
			// rates and every result field do.
			name: "float-formats",
			ev:   Event{Seq: 6, Type: TypeSpecDone, WallMS: 1.2e6, IPC: 1e-7, IPCErrorEst: 5e-05},
			want: `{"seq":6,"type":"spec_done","wall_ms":1200000,"ipc":1e-7,"ipc_error_est":0.00005}`,
		},
		{
			name: "error-escaping",
			ev:   Event{Seq: 3, Type: TypeJobFailed, Job: "j2", Error: "bad \"spec\"\nat\tline\x01"},
			want: `{"seq":3,"type":"job_failed","job":"j2","error":"bad \"spec\"\nat\tline\u0001"}`,
		},
		{
			name: "worker-down",
			ev:   Event{Seq: 4, Type: TypeWorkerDown, Worker: "http://10.0.0.2:8371", Specs: 5, Error: "health probe failed"},
			want: `{"seq":4,"type":"worker_down","worker":"http://10.0.0.2:8371","specs":5,"error":"health probe failed"}`,
		},
		{
			name: "interval-frame",
			ev: Event{
				Seq: 5, Type: TypeInterval, Job: "j1", Key: "k",
				Interval: obs.Interval{
					Index: 3, Start: 8192, End: 12288,
					// In stats.IntervalCounters order, as the golden names them.
					Counters: [len(stats.IntervalCounters)]uint64{
						4096, 5000, 2, 100, 3, 0, 10, 5, 1, 1, 0, 900, 100, 80, 20, 20,
					},
					IPC: 1, ReuseRate: 0.5, MPKI: 0.732421875, L1DMissRate: 0.1,
					Mode: obs.ModeDetail, Window: 2,
				},
			},
			want: `{"seq":5,"type":"interval","job":"j1","key":"k","interval":{"index":3,"start_cycle":8192,"end_cycle":12288,"retired":4096,"fetched":5000,"flushes":2,"branches":100,"branch_mispredicts":3,"jump_mispredicts":0,"reuse_tests":10,"reuse_hits":5,"squashed_streams":1,"reconvergences":1,"rgid_resets":0,"l1d_hits":900,"l1d_misses":100,"l2_hits":80,"l2_misses":20,"dram_accesses":20,"ipc":1,"reuse_rate":0.5,"mpki":0.732421875,"l1d_miss_rate":0.1,"mode":"detail","window":2}}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := string(tc.ev.AppendJSON(nil))
			if got != tc.want {
				t.Fatalf("encoding drifted:\ngot:  %s\nwant: %s", got, tc.want)
			}
			// MarshalJSON must produce the same bytes (the hub, msrtail and
			// archived NDJSON all route through it).
			viaJSON, err := json.Marshal(&tc.ev)
			if err != nil {
				t.Fatal(err)
			}
			if string(viaJSON) != tc.want {
				t.Fatalf("MarshalJSON diverged from AppendJSON:\ngot:  %s\nwant: %s", viaJSON, tc.want)
			}
			// Round trip: encoding/json must decode our encoding back into
			// an identical event.
			var back Event
			if err := json.Unmarshal([]byte(got), &back); err != nil {
				t.Fatalf("decoding own encoding: %v", err)
			}
			if back != tc.ev {
				t.Fatalf("round trip changed the event:\ngot:  %+v\nwant: %+v", back, tc.ev)
			}
		})
	}
}
