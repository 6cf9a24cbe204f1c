package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"mssr/internal/obs"
	"mssr/internal/stats"
)

// Observer receives per-job notifications from a Runner. Callbacks run
// on the pool's worker goroutines and must be safe for concurrent use.
type Observer interface {
	// OnStart fires when job index (of total) begins running.
	OnStart(index, total int, key string)
	// OnFinish fires when job index (of total) completes, in completion
	// order (not spec order).
	OnFinish(index, total int, r Result)
}

// Observers fans notifications out to several observers.
func Observers(obs ...Observer) Observer {
	flat := make(multiObserver, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			flat = append(flat, o)
		}
	}
	return flat
}

type multiObserver []Observer

func (m multiObserver) OnStart(index, total int, key string) {
	for _, o := range m {
		o.OnStart(index, total, key)
	}
}

func (m multiObserver) OnFinish(index, total int, r Result) {
	for _, o := range m {
		o.OnFinish(index, total, r)
	}
}

// Progress prints one line per finished job — counted in completion
// order — with its headline metrics, implementing msrbench's -progress
// mode.
type Progress struct {
	mu   sync.Mutex
	w    io.Writer
	done int
}

// NewProgress returns a Progress writing to w.
func NewProgress(w io.Writer) *Progress { return &Progress{w: w} }

// OnStart implements Observer.
func (p *Progress) OnStart(index, total int, key string) {}

// OnFinish implements Observer.
func (p *Progress) OnFinish(index, total int, r Result) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	if r.Err != nil {
		fmt.Fprintf(p.w, "[%d/%d] %-40s FAILED (%s): %v\n", p.done, total, r.Key, r.Wall.Round(time.Millisecond), r.Err)
		return
	}
	fmt.Fprintf(p.w, "[%d/%d] %-40s cycles=%-12d ipc=%-6.3f wall=%s\n",
		p.done, total, r.Key, r.Stats.Cycles, r.Stats.IPC(), r.Wall.Round(time.Millisecond))
}

// JSONStream emits one JSON object per finished job, giving sweeps a
// machine-readable result stream. Encoding failures (a full disk, a
// closed pipe) do not panic the worker pool; the first one is recorded
// and reported by Err, so callers can distinguish a complete stream from
// a truncated file that merely looks complete.
type JSONStream struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONStream returns a JSONStream writing to w.
func NewJSONStream(w io.Writer) *JSONStream { return &JSONStream{enc: json.NewEncoder(w)} }

// jobJSON is the wire shape of one job result.
type jobJSON struct {
	Key              string         `json:"key"`
	Program          string         `json:"program,omitempty"`
	Engine           string         `json:"engine,omitempty"`
	Cycles           uint64         `json:"cycles,omitempty"`
	Retired          uint64         `json:"retired,omitempty"`
	IPC              float64        `json:"ipc,omitempty"`
	MIPS             float64        `json:"mips,omitempty"`
	WallNS           int64          `json:"wall_ns"`
	Error            string         `json:"error,omitempty"`
	Stats            *stats.Stats   `json:"stats,omitempty"`
	Intervals        []obs.Interval `json:"intervals,omitempty"`
	IntervalsDropped int            `json:"intervals_dropped,omitempty"`
	// Multi-fidelity outcome; all omitted for full-detail runs, keeping
	// their stream records byte-identical to earlier versions.
	Extrapolated    bool    `json:"extrapolated,omitempty"`
	Windows         int     `json:"windows,omitempty"`
	FastForwarded   uint64  `json:"fast_forwarded,omitempty"`
	TotalRetired    uint64  `json:"total_retired,omitempty"`
	ExtrapolatedIPC float64 `json:"extrapolated_ipc,omitempty"`
	IPCErrorEst     float64 `json:"ipc_error_est,omitempty"`
}

// OnStart implements Observer.
func (j *JSONStream) OnStart(index, total int, key string) {}

// OnFinish implements Observer.
func (j *JSONStream) OnFinish(index, total int, r Result) {
	rec := jobJSON{
		Key:              r.Key,
		Program:          r.Program,
		Engine:           r.EngineName,
		MIPS:             r.MIPS,
		WallNS:           r.Wall.Nanoseconds(),
		Stats:            r.Stats,
		Intervals:        r.Intervals,
		IntervalsDropped: r.IntervalsDropped,
		Extrapolated:     r.Extrapolated,
		Windows:          r.Windows,
		FastForwarded:    r.FastForwarded,
		TotalRetired:     r.TotalRetired,
		ExtrapolatedIPC:  r.ExtrapolatedIPC,
		IPCErrorEst:      r.IPCErrorEst,
	}
	if r.Stats != nil {
		rec.Cycles = r.Stats.Cycles
		rec.Retired = r.Stats.Retired
		rec.IPC = r.Stats.IPC()
	}
	if r.Err != nil {
		rec.Error = r.Err.Error()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.enc.Encode(rec); err != nil && j.err == nil {
		j.err = fmt.Errorf("sim: json stream: encoding %s: %w", r.Key, err)
	}
}

// Err returns the first encoding failure of the stream, nil if every
// record was written. Check it after the sweep: a non-nil error means
// the output file is truncated.
func (j *JSONStream) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// IntervalStream emits every finished job's interval-telemetry records
// (Result.Intervals), each annotated with the job key so one file can
// carry a whole sweep; msrsim and msrbench -stats-out both write through
// it. The NDJSON form writes one object per interval; the CSV form
// writes one header plus one row per interval with the key as the first
// column. Like JSONStream, the first write failure is recorded and
// reported by Err rather than panicking the worker pool.
type IntervalStream struct {
	mu          sync.Mutex
	w           io.Writer
	csv         bool
	wroteHeader bool
	err         error
}

// NewIntervalStream returns an IntervalStream writing NDJSON to w.
func NewIntervalStream(w io.Writer) *IntervalStream { return &IntervalStream{w: w} }

// NewIntervalCSVStream returns an IntervalStream writing CSV to w.
func NewIntervalCSVStream(w io.Writer) *IntervalStream { return &IntervalStream{w: w, csv: true} }

// OnStart implements Observer.
func (s *IntervalStream) OnStart(index, total int, key string) {}

// OnFinish implements Observer.
func (s *IntervalStream) OnFinish(index, total int, r Result) {
	if len(r.Intervals) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if s.csv {
		s.err = s.writeCSV(r)
		return
	}
	// Each line is the interval's JSON object with "key" as its first
	// field, the key quoted as encoding/json quotes it.
	key, _ := json.Marshal(r.Key) // a string always encodes
	var line []byte
	for i := range r.Intervals {
		line = append(append(line[:0], `{"key":`...), key...)
		at := len(line)
		line = r.Intervals[i].AppendJSON(line)
		line[at] = ',' // the interval's opening brace becomes the separator
		if _, err := s.w.Write(append(line, '\n')); err != nil {
			s.err = fmt.Errorf("sim: interval stream: writing %s: %w", r.Key, err)
			return
		}
	}
}

func (s *IntervalStream) writeCSV(r Result) error {
	if !s.wroteHeader {
		if _, err := fmt.Fprintln(s.w, "key,"+obs.CSVHeader()); err != nil {
			return fmt.Errorf("sim: interval stream: writing header: %w", err)
		}
		s.wroteHeader = true
	}
	for i := range r.Intervals {
		if _, err := fmt.Fprintln(s.w, r.Key+","+r.Intervals[i].CSVRow()); err != nil {
			return fmt.Errorf("sim: interval stream: writing %s: %w", r.Key, err)
		}
	}
	return nil
}

// Err returns the first write failure of the stream, nil if every record
// was written.
func (s *IntervalStream) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
