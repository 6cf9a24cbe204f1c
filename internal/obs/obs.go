// Package obs is the interval-telemetry engine: an allocation-free
// time-series sampler over the simulator's cumulative counters. Every N
// cycles the core snapshots its stats.Stats (plus the L1D/L2/DRAM
// counters of internal/mem) into a Snapshot; the Sampler differences
// consecutive snapshots into Interval records — per-window deltas with
// the derived rates (IPC, reuse hit rate, branch MPKI, L1D miss rate)
// the paper's whole-run aggregates hide: warmup, reuse-rate ramp after
// RGID resets, mispredict bursts.
//
// The Sampler preallocates a fixed ring of Interval records at
// construction and never allocates afterwards, so an attached sampler
// keeps the cycle loop's zero-allocation discipline (guarded by
// core.TestSteadyStateZeroAllocs). When a run outlives the ring, the
// oldest intervals are overwritten and Dropped reports how many; the
// absolute Index on each record keeps the gap visible downstream.
package obs

import "mssr/internal/stats"

// DefaultWindow is the interval-ring capacity used when a sampler is
// requested without an explicit window.
const DefaultWindow = 1024

// Snapshot is the cumulative counter state at one cycle boundary. It is
// a plain value: building one costs no allocation.
type Snapshot struct {
	Cycle uint64
	// Counters holds each interval counter's running total, in
	// stats.IntervalCounters order.
	Counters [len(stats.IntervalCounters)]uint64
}

// SnapshotOf builds the cumulative snapshot at cycle from st. The memory
// counters must already be mirrored into st (the core does this before
// every sample; see Core.syncMemStats).
func SnapshotOf(cycle uint64, st *stats.Stats) Snapshot {
	snap := Snapshot{Cycle: cycle}
	for i, c := range stats.IntervalCounters {
		snap.Counters[i] = *c.Field(st)
	}
	return snap
}

// Interval is the delta between two consecutive snapshots plus the rates
// derived from it. AppendJSON is its one JSON encoding (MarshalJSON and
// UnmarshalJSON follow it) and CSVRow its CSV row.
type Interval struct {
	// Index is the absolute interval number since the run began; gaps
	// against a record's position reveal ring overwrites.
	Index int
	// Start and End bound the window in cycles: [Start, End).
	Start uint64
	End   uint64

	// Counters holds each interval counter's delta over the window, in
	// stats.IntervalCounters order.
	Counters [len(stats.IntervalCounters)]uint64

	// Derived per-interval rates (stats.IntervalRates).
	IPC         float64
	ReuseRate   float64
	MPKI        float64
	L1DMissRate float64

	// Execution-mode annotation, set by the multi-fidelity orchestration
	// (internal/sim): Mode names how the enclosing region was executed
	// (ModeDetail for a sampled detailed window) and Window is the
	// 1-based sample-period number the interval belongs to. Both stay
	// zero-valued — and absent from the JSON — for full-detail runs, so
	// their interval streams are byte-identical to earlier versions.
	Mode   string
	Window int
}

// ModeDetail annotates intervals recorded inside a detailed window of a
// multi-fidelity run.
const ModeDetail = "detail"

// Cycles returns the window length.
func (iv *Interval) Cycles() uint64 { return iv.End - iv.Start }

// intervalBetween differences prev and cur into the interval record at
// absolute index idx.
func intervalBetween(idx int, prev, cur *Snapshot) Interval {
	iv := Interval{Index: idx, Start: prev.Cycle, End: cur.Cycle}
	for i := range iv.Counters {
		iv.Counters[i] = cur.Counters[i] - prev.Counters[i]
	}
	iv.IPC, iv.ReuseRate, iv.MPKI, iv.L1DMissRate = stats.IntervalRates(&iv.Counters, iv.Cycles())
	return iv
}

// Sampler turns a stream of cumulative snapshots into interval records,
// holding the most recent window of them in a preallocated ring. The
// zero value is not usable; construct with NewSampler. Sampler is not
// safe for concurrent use — it belongs to one core.
type Sampler struct {
	every uint64
	ring  []Interval
	n     int // total intervals recorded since Reset
	prev  Snapshot
}

// NewSampler builds a sampler that expects a snapshot every `every`
// cycles and retains the last `window` intervals (DefaultWindow when
// window <= 0). every must be positive.
func NewSampler(every uint64, window int) *Sampler {
	if every == 0 {
		panic("obs: sampler interval must be positive")
	}
	if window <= 0 {
		window = DefaultWindow
	}
	return &Sampler{every: every, ring: make([]Interval, window)}
}

// Every returns the sampling interval in cycles.
func (s *Sampler) Every() uint64 { return s.every }

// Record closes the interval ending at snap, overwriting the oldest
// record if the ring is full. It never allocates.
func (s *Sampler) Record(snap Snapshot) {
	s.ring[s.n%len(s.ring)] = intervalBetween(s.n, &s.prev, &snap)
	s.n++
	s.prev = snap
}

// Flush records the trailing partial interval ending at snap, if any
// cycles elapsed since the last boundary, and reports whether a record
// was produced. Call it once when a run ends.
func (s *Sampler) Flush(snap Snapshot) bool {
	if snap.Cycle > s.prev.Cycle {
		s.Record(snap)
		return true
	}
	return false
}

// Last returns the most recently recorded interval, or nil when none
// has been recorded since Reset. The pointer aliases the ring: copy the
// record before the next Record/Reset if it must outlive them.
func (s *Sampler) Last() *Interval {
	if s.n == 0 {
		return nil
	}
	return &s.ring[(s.n-1)%len(s.ring)]
}

// Reset restores the pristine post-construction state in place, keeping
// the ring's backing array (the core's Resettable seam).
func (s *Sampler) Reset() {
	s.n = 0
	s.prev = Snapshot{}
}

// Len reports how many intervals are retained (at most the window).
func (s *Sampler) Len() int {
	if s.n < len(s.ring) {
		return s.n
	}
	return len(s.ring)
}

// Total reports how many intervals were recorded since Reset, including
// any the ring has since overwritten.
func (s *Sampler) Total() int { return s.n }

// Dropped reports how many early intervals the ring overwrote.
func (s *Sampler) Dropped() int {
	if d := s.n - len(s.ring); d > 0 {
		return d
	}
	return 0
}

// AppendTo appends the retained intervals to dst in recording order and
// returns the extended slice. The records are copies: they stay valid
// after the sampler is Reset or overwritten, which is what lets pooled
// cores hand intervals to a result without aliasing pooled state.
func (s *Sampler) AppendTo(dst []Interval) []Interval {
	if s.n <= len(s.ring) {
		return append(dst, s.ring[:s.n]...)
	}
	at := s.n % len(s.ring)
	dst = append(dst, s.ring[at:]...)
	return append(dst, s.ring[:at]...)
}

// Intervals returns the retained intervals in recording order (nil when
// none were recorded).
func (s *Sampler) Intervals() []Interval {
	if s.n == 0 {
		return nil
	}
	return s.AppendTo(make([]Interval, 0, s.Len()))
}
