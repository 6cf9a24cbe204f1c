// Package stats collects the counters the paper's evaluation reports:
// cycles/IPC, branch behaviour, squash-reuse activity, reconvergence-type
// breakdowns (Figure 4), stream-distance histograms (Figure 11) and reuse
// structure maintenance events (Figure 3).
package stats

import "fmt"

// MaxStreamDistance bounds the stream-distance histogram; distances at or
// beyond the bound accumulate in the last bucket.
const MaxStreamDistance = 8

// ReconvType classifies a detected reconvergence by which squashed stream
// the corrected path merged onto, following §2.2.5 of the paper.
type ReconvType int

// Reconvergence types.
const (
	// ReconvSimple: merged onto the squashed path of the diverging branch
	// itself.
	ReconvSimple ReconvType = iota
	// ReconvSoftware: merged onto the squashed path of an elder branch
	// (software-induced multi-stream reconvergence).
	ReconvSoftware
	// ReconvHardware: merged onto the squashed path of a younger branch
	// (hardware-induced multi-stream reconvergence, from out-of-order
	// branch resolution).
	ReconvHardware
	numReconvTypes
)

func (t ReconvType) String() string {
	switch t {
	case ReconvSimple:
		return "simple"
	case ReconvSoftware:
		return "software-induced"
	case ReconvHardware:
		return "hardware-induced"
	}
	return fmt.Sprintf("reconv(%d)", int(t))
}

// Stats aggregates one simulation's counters. The zero value is ready to
// use. Every scalar counter has one row in Counters; the hot path
// increments the named fields directly.
type Stats struct {
	// Core progress.
	Cycles  uint64
	Retired uint64
	Fetched uint64 // instructions entering the pipeline, incl. wrong path
	Flushes uint64 // full pipeline flushes (mispredicts + violations)

	// Branches (counted at retirement).
	Branches          uint64
	BranchMispredicts uint64
	JumpMispredicts   uint64 // indirect target mispredictions

	// Squash reuse.
	SquashedStreams  uint64 // streams captured into WPB/Squash Log
	Reconvergences   uint64 // reconvergence points detected
	ReuseTests       uint64 // instructions tested against the squash log
	ReuseHits        uint64 // instructions whose results were reused
	ReusedLoads      uint64
	ReuseFailRGID    uint64 // source RGID mismatch
	ReuseFailNotDone uint64 // squashed counterpart had not executed
	ReuseFailKind    uint64 // op not eligible (stores, etc.)
	Divergences      uint64 // reuse window terminated by path divergence
	StreamTimeouts   uint64 // WPB invalidated by the 1024-instruction timeout
	RGIDResets       uint64 // global RGID resets (§3.3.2)

	// Memory ordering.
	LoadVerifications   uint64 // reused loads re-executed for verification
	MemOrderViolations  uint64 // verification mismatches -> flush
	BloomFilterRejects  uint64 // reuse blocked by the Bloom filter variant
	StoreSetPredictions uint64

	// Memory hierarchy, mirrored from internal/mem by the core at every
	// telemetry sample and at run end (the counters accumulate inside
	// mem.Cache; these fields make them part of every result).
	L1DHits      uint64
	L1DMisses    uint64
	L1DEvictions uint64
	L2Hits       uint64
	L2Misses     uint64
	L2Evictions  uint64
	DRAMAccesses uint64

	// Reconvergence classification (Figure 4).
	ReconvByType [numReconvTypes]uint64

	// Stream distance histogram (Figure 11): ReconvDistance[d] counts
	// reconvergences whose squashed stream was d intermediate squash
	// events away (0 == neighbouring stream).
	ReconvDistance [MaxStreamDistance]uint64

	// Register Integration maintenance (Figure 3): per-set replacement
	// counts, sized by the engine when RI is active.
	RIReplacements []uint64
	RIHits         uint64
	RIInvalidates  uint64 // transitive invalidations
}

// A Counter is one scalar counter of Stats: the name it carries on the
// wire and the field that holds it.
type Counter struct {
	Name  string
	Field func(*Stats) *uint64
}

// IntervalCounters are the counters interval telemetry carries, in wire
// order: a sample snapshots them, an interval holds their deltas, and
// its JSON fields and CSV columns are named after them. Append a new one
// at the end, so the positions IntervalRates reads stay put.
var IntervalCounters = [...]Counter{
	{"retired", func(s *Stats) *uint64 { return &s.Retired }},
	{"fetched", func(s *Stats) *uint64 { return &s.Fetched }},
	{"flushes", func(s *Stats) *uint64 { return &s.Flushes }},
	{"branches", func(s *Stats) *uint64 { return &s.Branches }},
	{"branch_mispredicts", func(s *Stats) *uint64 { return &s.BranchMispredicts }},
	{"jump_mispredicts", func(s *Stats) *uint64 { return &s.JumpMispredicts }},
	{"reuse_tests", func(s *Stats) *uint64 { return &s.ReuseTests }},
	{"reuse_hits", func(s *Stats) *uint64 { return &s.ReuseHits }},
	{"squashed_streams", func(s *Stats) *uint64 { return &s.SquashedStreams }},
	{"reconvergences", func(s *Stats) *uint64 { return &s.Reconvergences }},
	{"rgid_resets", func(s *Stats) *uint64 { return &s.RGIDResets }},
	{"l1d_hits", func(s *Stats) *uint64 { return &s.L1DHits }},
	{"l1d_misses", func(s *Stats) *uint64 { return &s.L1DMisses }},
	{"l2_hits", func(s *Stats) *uint64 { return &s.L2Hits }},
	{"l2_misses", func(s *Stats) *uint64 { return &s.L2Misses }},
	{"dram_accesses", func(s *Stats) *uint64 { return &s.DRAMAccesses }},
}

// Counters lists every scalar counter of Stats once, IntervalCounters
// first; Add and Sub loop over it. A new counter is a Stats field plus
// one row here, or in IntervalCounters if intervals should carry it.
var Counters = append(IntervalCounters[:],
	Counter{"cycles", func(s *Stats) *uint64 { return &s.Cycles }},
	Counter{"reused_loads", func(s *Stats) *uint64 { return &s.ReusedLoads }},
	Counter{"reuse_fail_rgid", func(s *Stats) *uint64 { return &s.ReuseFailRGID }},
	Counter{"reuse_fail_not_done", func(s *Stats) *uint64 { return &s.ReuseFailNotDone }},
	Counter{"reuse_fail_kind", func(s *Stats) *uint64 { return &s.ReuseFailKind }},
	Counter{"divergences", func(s *Stats) *uint64 { return &s.Divergences }},
	Counter{"stream_timeouts", func(s *Stats) *uint64 { return &s.StreamTimeouts }},
	Counter{"load_verifications", func(s *Stats) *uint64 { return &s.LoadVerifications }},
	Counter{"mem_order_violations", func(s *Stats) *uint64 { return &s.MemOrderViolations }},
	Counter{"bloom_filter_rejects", func(s *Stats) *uint64 { return &s.BloomFilterRejects }},
	Counter{"store_set_predictions", func(s *Stats) *uint64 { return &s.StoreSetPredictions }},
	Counter{"l1d_evictions", func(s *Stats) *uint64 { return &s.L1DEvictions }},
	Counter{"l2_evictions", func(s *Stats) *uint64 { return &s.L2Evictions }},
	Counter{"ri_hits", func(s *Stats) *uint64 { return &s.RIHits }},
	Counter{"ri_invalidates", func(s *Stats) *uint64 { return &s.RIInvalidates }},
)

// Positions in IntervalCounters of the counters IntervalRates reads
// (TestCountersCoverStats fails if a row moves one).
const (
	iRetired           = 0
	iBranchMispredicts = 4
	iJumpMispredicts   = 5
	iReuseHits         = 7
	iL1DHits           = 11
	iL1DMisses         = 12
)

// IntervalRates derives an interval's rates from its counter deltas d
// (in IntervalCounters order) over cycles cycles: IPC, reuse rate,
// branch MPKI and L1D miss rate, as the Stats methods of those names
// define them.
func IntervalRates(d *[len(IntervalCounters)]uint64, cycles uint64) (ipc, reuse, mpki, l1dMiss float64) {
	s := Stats{
		Cycles:            cycles,
		Retired:           d[iRetired],
		BranchMispredicts: d[iBranchMispredicts],
		JumpMispredicts:   d[iJumpMispredicts],
		ReuseHits:         d[iReuseHits],
		L1DHits:           d[iL1DHits],
		L1DMisses:         d[iL1DMisses],
	}
	return s.IPC(), s.ReuseRate(), s.MPKI(), s.L1DMissRate()
}

// Reset zeroes every counter in place, keeping the RIReplacements
// backing array (sized once by the engine) so pooled cores never
// reallocate it between runs.
func (s *Stats) Reset() {
	ri := s.RIReplacements
	*s = Stats{}
	if ri != nil {
		clear(ri)
		s.RIReplacements = ri
	}
}

// Clone returns a deep copy, detaching the RIReplacements backing so the
// copy survives a later Reset of the original (results extracted from
// pooled cores must not alias pooled state).
func (s *Stats) Clone() *Stats {
	c := *s
	if s.RIReplacements != nil {
		c.RIReplacements = append([]uint64(nil), s.RIReplacements...)
	}
	return &c
}

// Add accumulates o's counters into s — the aggregation a multi-fidelity
// run uses to fold successive detailed windows into one result.
// Histograms add element-wise; RIReplacements grows to o's length if
// needed (the engine sizes it identically for every window of a run).
func (s *Stats) Add(o *Stats) {
	if len(o.RIReplacements) > len(s.RIReplacements) {
		grown := make([]uint64, len(o.RIReplacements))
		copy(grown, s.RIReplacements)
		s.RIReplacements = grown
	}
	for i, v := range o.RIReplacements {
		s.RIReplacements[i] += v
	}
	for _, c := range Counters {
		*c.Field(s) += *c.Field(o)
	}
	for i := range s.ReconvByType {
		s.ReconvByType[i] += o.ReconvByType[i]
	}
	for i := range s.ReconvDistance {
		s.ReconvDistance[i] += o.ReconvDistance[i]
	}
}

// CopyFrom makes s a deep copy of o, reusing s's histogram capacity when
// it suffices — the snapshot a multi-fidelity run takes at a measurement
// boundary without allocating in the steady state.
func (s *Stats) CopyFrom(o *Stats) {
	ri := s.RIReplacements
	*s = *o
	if cap(ri) < len(o.RIReplacements) {
		ri = make([]uint64, len(o.RIReplacements))
	}
	ri = ri[:len(o.RIReplacements)]
	copy(ri, o.RIReplacements)
	s.RIReplacements = ri
}

// Sub removes o's counters from s — the inverse of Add, used to exclude
// a detailed-warmup prefix from a sample window's measurement. o must be
// an earlier snapshot of the same run, so every counter in s is at least
// its counterpart in o.
func (s *Stats) Sub(o *Stats) {
	for i, v := range o.RIReplacements {
		s.RIReplacements[i] -= v
	}
	for _, c := range Counters {
		*c.Field(s) -= *c.Field(o)
	}
	for i := range s.ReconvByType {
		s.ReconvByType[i] -= o.ReconvByType[i]
	}
	for i := range s.ReconvDistance {
		s.ReconvDistance[i] -= o.ReconvDistance[i]
	}
}

// IPC returns retired instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// MispredictRate returns the fraction of retired conditional branches that
// mispredicted.
func (s *Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.BranchMispredicts) / float64(s.Branches)
}

// MPKI returns branch mispredictions per kilo-instruction.
func (s *Stats) MPKI() float64 {
	if s.Retired == 0 {
		return 0
	}
	return 1000 * float64(s.BranchMispredicts+s.JumpMispredicts) / float64(s.Retired)
}

// ReuseRate returns the fraction of retired instructions that were reused.
func (s *Stats) ReuseRate() float64 {
	if s.Retired == 0 {
		return 0
	}
	return float64(s.ReuseHits) / float64(s.Retired)
}

// L1DMissRate returns the fraction of L1D accesses that missed.
func (s *Stats) L1DMissRate() float64 {
	if s.L1DHits+s.L1DMisses == 0 {
		return 0
	}
	return float64(s.L1DMisses) / float64(s.L1DHits+s.L1DMisses)
}

// AddReconv records one detected reconvergence of type t at stream distance
// d (0 = neighbouring stream).
func (s *Stats) AddReconv(t ReconvType, d int) {
	s.Reconvergences++
	s.ReconvByType[t]++
	if d < 0 {
		d = 0
	}
	if d >= MaxStreamDistance {
		d = MaxStreamDistance - 1
	}
	s.ReconvDistance[d]++
}

// ReconvFraction returns the fraction of reconvergences of type t.
func (s *Stats) ReconvFraction(t ReconvType) float64 {
	if s.Reconvergences == 0 {
		return 0
	}
	return float64(s.ReconvByType[t]) / float64(s.Reconvergences)
}

// DistanceFraction returns the cumulative fraction of reconvergences whose
// stream distance is <= d.
func (s *Stats) DistanceFraction(d int) float64 {
	if s.Reconvergences == 0 {
		return 0
	}
	var n uint64
	for i := 0; i <= d && i < MaxStreamDistance; i++ {
		n += s.ReconvDistance[i]
	}
	return float64(n) / float64(s.Reconvergences)
}

// String summarizes the headline counters.
func (s *Stats) String() string {
	return fmt.Sprintf("cycles=%d retired=%d IPC=%.3f mispredicts=%d (%.2f%%) reuse=%d (%.2f%%) reconv=%d",
		s.Cycles, s.Retired, s.IPC(),
		s.BranchMispredicts, 100*s.MispredictRate(),
		s.ReuseHits, 100*s.ReuseRate(), s.Reconvergences)
}

// Speedup returns the relative IPC improvement of s over base, as a
// fraction (0.05 == 5% faster). Both runs must have retired the same
// workload for the comparison to be meaningful.
func Speedup(base, s *Stats) float64 {
	if base.Cycles == 0 || s.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles)/float64(s.Cycles) - 1
}
