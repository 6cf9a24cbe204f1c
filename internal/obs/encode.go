package obs

import (
	"strconv"
	"strings"
)

// csvColumns is the CSV column order; it mirrors the Interval field
// order so the two encodings agree on what an interval is.
var csvColumns = []string{
	"index", "start_cycle", "end_cycle",
	"retired", "fetched", "flushes",
	"branches", "branch_mispredicts", "jump_mispredicts",
	"reuse_tests", "reuse_hits", "squashed_streams", "reconvergences", "rgid_resets",
	"l1d_hits", "l1d_misses", "l2_hits", "l2_misses", "dram_accesses",
	"ipc", "reuse_rate", "mpki", "l1d_miss_rate",
	"mode", "window",
}

// CSVHeader returns the comma-joined column names of CSVRow.
func CSVHeader() string { return strings.Join(csvColumns, ",") }

// CSVRow renders the interval as one CSV row matching CSVHeader. Floats
// use the shortest round-trippable representation, keeping rows
// byte-deterministic.
func (iv *Interval) CSVRow() string {
	var sb strings.Builder
	u := func(v uint64) {
		sb.WriteString(strconv.FormatUint(v, 10))
		sb.WriteByte(',')
	}
	u(uint64(iv.Index))
	u(iv.Start)
	u(iv.End)
	u(iv.Retired)
	u(iv.Fetched)
	u(iv.Flushes)
	u(iv.Branches)
	u(iv.BranchMispredicts)
	u(iv.JumpMispredicts)
	u(iv.ReuseTests)
	u(iv.ReuseHits)
	u(iv.SquashedStreams)
	u(iv.Reconvergences)
	u(iv.RGIDResets)
	u(iv.L1DHits)
	u(iv.L1DMisses)
	u(iv.L2Hits)
	u(iv.L2Misses)
	u(iv.DRAMAccesses)
	f := func(v float64) { sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64)) }
	f(iv.IPC)
	sb.WriteByte(',')
	f(iv.ReuseRate)
	sb.WriteByte(',')
	f(iv.MPKI)
	sb.WriteByte(',')
	f(iv.L1DMissRate)
	sb.WriteByte(',')
	sb.WriteString(iv.Mode) // bare token, never quoted ("", "detail")
	sb.WriteByte(',')
	sb.WriteString(strconv.Itoa(iv.Window))
	return sb.String()
}

// AppendJSON appends the interval as one JSON object to dst and returns
// the extended slice. The field order matches the struct's JSON tags and
// floats use the shortest round-trippable representation, so identical
// intervals always produce identical bytes (the live event stream's
// golden pins rely on this). Mode and Window are omitted when zero,
// mirroring their omitempty tags. Mode never needs escaping ("" or
// "detail").
func (iv *Interval) AppendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	u := func(k string, v uint64) {
		dst = append(dst, '"')
		dst = append(dst, k...)
		dst = append(dst, '"', ':')
		dst = strconv.AppendUint(dst, v, 10)
		dst = append(dst, ',')
	}
	f := func(k string, v float64) {
		dst = append(dst, '"')
		dst = append(dst, k...)
		dst = append(dst, '"', ':')
		dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
		dst = append(dst, ',')
	}
	u("index", uint64(iv.Index))
	u("start_cycle", iv.Start)
	u("end_cycle", iv.End)
	u("retired", iv.Retired)
	u("fetched", iv.Fetched)
	u("flushes", iv.Flushes)
	u("branches", iv.Branches)
	u("branch_mispredicts", iv.BranchMispredicts)
	u("jump_mispredicts", iv.JumpMispredicts)
	u("reuse_tests", iv.ReuseTests)
	u("reuse_hits", iv.ReuseHits)
	u("squashed_streams", iv.SquashedStreams)
	u("reconvergences", iv.Reconvergences)
	u("rgid_resets", iv.RGIDResets)
	u("l1d_hits", iv.L1DHits)
	u("l1d_misses", iv.L1DMisses)
	u("l2_hits", iv.L2Hits)
	u("l2_misses", iv.L2Misses)
	u("dram_accesses", iv.DRAMAccesses)
	f("ipc", iv.IPC)
	f("reuse_rate", iv.ReuseRate)
	f("mpki", iv.MPKI)
	f("l1d_miss_rate", iv.L1DMissRate)
	if iv.Mode != "" {
		dst = append(dst, `"mode":"`...)
		dst = append(dst, iv.Mode...)
		dst = append(dst, '"', ',')
	}
	if iv.Window != 0 {
		dst = append(dst, `"window":`...)
		dst = strconv.AppendInt(dst, int64(iv.Window), 10)
		dst = append(dst, ',')
	}
	return append(dst[:len(dst)-1], '}') // drop the trailing comma
}
