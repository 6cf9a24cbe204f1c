// Package events is the live-telemetry bus: a bounded,
// allocation-disciplined pub/sub hub carrying two typed streams — job
// lifecycle events (queued → dispatched → running → window k/N →
// done/failed) and interval telemetry frames (obs.Interval records as
// the sampler produces them, including multi-fidelity Mode/Window
// annotations). The daemon and the fleet coordinator stream it to
// subscribers as NDJSON over plain HTTP (GET /v1/events), one
// Event.AppendJSON line per event; slow consumers lose frames (counted)
// rather than ever blocking a publisher, which is what keeps the cycle
// loop's zero-allocation discipline intact with a hub attached.
package events

import (
	"strconv"

	"mssr/internal/obs"
)

// Event types. A consumer switches on Type; every other field is
// populated only where it makes sense for the type (zero values are
// omitted from the encoding).
const (
	// Job lifecycle (server and fleet; Job is the owning job id).
	TypeJobQueued = "job_queued" // submission accepted (Specs = batch size)
	TypeJobStart  = "job_start"  // left the queue (QueueMS = queue latency)
	TypeJobDone   = "job_done"   // every spec finished ok (WallMS = run duration)
	TypeJobFailed = "job_failed" // finished with >= 1 failed spec

	// Per-spec lifecycle (Key = canonical spec key).
	TypeSpecStart      = "spec_start"      // a leader simulation began executing
	TypeSpecDispatched = "spec_dispatched" // fleet: chunk handed to Worker
	TypeSpecDone       = "spec_done"       // spec resolved (Source, WallMS, IPC; Error on failure)

	// Multi-fidelity progress: detailed window Window of Windows started.
	TypeWindow = "window"

	// Interval telemetry: one obs.Interval frame, live from the sampler.
	TypeInterval = "interval"

	// Fleet ring membership and recovery (Worker = address).
	TypeWorkerUp         = "worker_up"         // health probe passed, worker (re)joined the ring
	TypeWorkerDown       = "worker_down"       // probe failures crossed the threshold
	TypeWorkerRegistered = "worker_registered" // dynamic registration accepted
	TypeSteal            = "steal"             // Specs units stolen from Worker's backlog
	TypeRetry            = "retry"             // Specs units re-queued after Worker failed them
)

// Event is one frame on the bus. It is a flat value type: publishing
// copies it through channel buffers, so no event ever aliases publisher
// state (in particular the sampler's interval ring) and the no-subscriber
// publish path allocates nothing.
type Event struct {
	// Seq is the hub-assigned publication sequence number (1-based,
	// monotonic per hub). Gaps in a subscriber's view are dropped frames.
	Seq uint64 `json:"seq"`
	// TimeNS is the hub's publication timestamp in Unix nanoseconds.
	TimeNS int64  `json:"time_ns,omitempty"`
	Type   string `json:"type"`

	Job    string `json:"job,omitempty"`    // owning job id
	Key    string `json:"key,omitempty"`    // canonical spec key
	Worker string `json:"worker,omitempty"` // fleet worker address
	Source string `json:"source,omitempty"` // api.Source* for spec_done

	Specs   int `json:"specs,omitempty"`   // batch size / unit count
	Done    int `json:"done,omitempty"`    // specs resolved so far
	Window  int `json:"window,omitempty"`  // 1-based sample period
	Windows int `json:"windows,omitempty"` // total sample periods

	QueueMS float64 `json:"queue_ms,omitempty"` // queue latency (job_start)
	WallMS  float64 `json:"wall_ms,omitempty"`  // stage duration (spec_done, job_done)

	IPC             float64 `json:"ipc,omitempty"`              // spec_done: whole-run IPC
	ExtrapolatedIPC float64 `json:"extrapolated_ipc,omitempty"` // fidelity estimate
	IPCErrorEst     float64 `json:"ipc_error_est,omitempty"`    // relative standard error
	Extrapolated    bool    `json:"extrapolated,omitempty"`

	Error string `json:"error,omitempty"`

	// Interval is the telemetry frame, meaningful only when Type ==
	// TypeInterval (and omitted from the encoding otherwise). Held by
	// value so the event stays a flat copyable record.
	Interval obs.Interval `json:"interval"`
}

// AppendJSON appends the event as one JSON object to dst and returns
// the extended slice. The encoding is byte-deterministic: fixed field
// order, zero-valued fields omitted, floats printed as encoding/json
// prints them (the golden pins in golden_test.go freeze it).
// encoding/json unmarshals the output back into an identical Event.
func (e *Event) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, e.Seq, 10)
	if e.TimeNS != 0 {
		dst = append(dst, `,"time_ns":`...)
		dst = strconv.AppendInt(dst, e.TimeNS, 10)
	}
	dst = append(dst, `,"type":`...)
	dst = obs.AppendJSONString(dst, e.Type)
	str := func(k, v string) {
		if v == "" {
			return
		}
		dst = append(dst, ',', '"')
		dst = append(dst, k...)
		dst = append(dst, '"', ':')
		dst = obs.AppendJSONString(dst, v)
	}
	num := func(k string, v int) {
		if v == 0 {
			return
		}
		dst = append(dst, ',', '"')
		dst = append(dst, k...)
		dst = append(dst, '"', ':')
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	flt := func(k string, v float64) {
		if v == 0 {
			return
		}
		dst = append(dst, ',', '"')
		dst = append(dst, k...)
		dst = append(dst, '"', ':')
		dst = obs.AppendJSONFloat(dst, v)
	}
	str("job", e.Job)
	str("key", e.Key)
	str("worker", e.Worker)
	str("source", e.Source)
	num("specs", e.Specs)
	num("done", e.Done)
	num("window", e.Window)
	num("windows", e.Windows)
	flt("queue_ms", e.QueueMS)
	flt("wall_ms", e.WallMS)
	flt("ipc", e.IPC)
	flt("extrapolated_ipc", e.ExtrapolatedIPC)
	flt("ipc_error_est", e.IPCErrorEst)
	if e.Extrapolated {
		dst = append(dst, `,"extrapolated":true`...)
	}
	str("error", e.Error)
	if e.Type == TypeInterval {
		dst = append(dst, `,"interval":`...)
		dst = e.Interval.AppendJSON(dst)
	}
	return append(dst, '}')
}

// MarshalJSON routes encoding/json through AppendJSON, so every
// serialization of an Event — hub broadcast, test assertion, archived
// NDJSON — is the same bytes.
func (e *Event) MarshalJSON() ([]byte, error) {
	return e.AppendJSON(make([]byte, 0, 256)), nil
}
