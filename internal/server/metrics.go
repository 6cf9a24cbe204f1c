package server

import (
	"fmt"
	"io"
	"sync/atomic"

	"mssr/internal/ckpt"
	"mssr/internal/obs"
	"mssr/internal/store"
)

// metrics holds the daemon's counters, exported in Prometheus text
// exposition format on /metrics. All fields are atomics: they are
// updated from job workers and read by the scrape handler concurrently.
type metrics struct {
	jobsSubmitted atomic.Uint64 // accepted: queued, or answered from the cache
	jobsRejected  atomic.Uint64 // shed with 429 at admission
	jobsCompleted atomic.Uint64 // finished with every simulation ok
	jobsFailed    atomic.Uint64 // finished with >= 1 failed simulation
	jobsRunning   atomic.Int64  // gauge: currently executing

	cacheHits      atomic.Uint64 // specs served from the in-memory result cache
	cacheMisses    atomic.Uint64 // specs that missed the in-memory cache
	cacheEvictions atomic.Uint64 // entries the in-memory LRU bound pushed out
	dedupJoins     atomic.Uint64 // specs that joined an identical in-flight run

	simsRun     atomic.Uint64 // simulations actually executed
	simsFailed  atomic.Uint64 // executed simulations that returned an error
	simCycles   atomic.Uint64 // cumulative simulated cycles
	simRetired  atomic.Uint64 // cumulative retired instructions
	simWallNS   atomic.Int64  // cumulative simulation wall time
	streamConns atomic.Int64  // gauge: open NDJSON streams (/stream, /v1/events)

	streamErrors atomic.Uint64 // NDJSON streams ended by an encode or write failure

	// Memory hierarchy totals, mirrored from executed simulations' stats.
	l1dHits      atomic.Uint64
	l1dMisses    atomic.Uint64
	l1dEvictions atomic.Uint64
	l2Hits       atomic.Uint64
	l2Misses     atomic.Uint64
	l2Evictions  atomic.Uint64
	dramAccesses atomic.Uint64

	requestDur *obs.Histogram // HTTP request handling latency
	simDur     *obs.Histogram // executed simulation wall time

	// Build identity, resolved once in init for the build_info gauge.
	version, goVersion, revision string
}

// init allocates the histograms and resolves the build identity; call
// once before serving.
func (m *metrics) init() {
	m.requestDur = obs.NewHistogram(obs.DurationBuckets)
	m.simDur = obs.NewHistogram(obs.DurationBuckets)
	m.version, m.goVersion, m.revision = obs.BuildInfo()
}

// write renders every metric, each name under prefix. queueDepth,
// cacheLen, eventsDropped and uptimeSec are sampled by the caller (they are
// gauges owned by other structures); rs and cs are the server's result
// and checkpoint stores, and a nil one leaves its series out.
func (m *metrics) write(w io.Writer, prefix string, queueDepth, cacheLen int, rs *store.Store, cs *ckpt.Store, eventsDropped uint64, uptimeSec float64) {
	emit := func(name, help, typ string, value interface{}) {
		name = prefix + name
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, typ, name, value)
	}
	fmt.Fprintf(w, "# HELP %[1]sbuild_info Build identity of the running daemon (constant 1).\n# TYPE %[1]sbuild_info gauge\n%[1]sbuild_info{version=%[2]q,go_version=%[3]q,revision=%[4]q} 1\n",
		prefix, m.version, m.goVersion, m.revision)
	emit("uptime_seconds", "Seconds since the daemon started serving.", "gauge",
		fmt.Sprintf("%.3f", uptimeSec))
	emit("jobs_submitted_total", "Jobs accepted: queued, or answered whole from the result cache.", "counter", m.jobsSubmitted.Load())
	emit("jobs_rejected_total", "Jobs shed with 429 because the queue was full.", "counter", m.jobsRejected.Load())
	emit("jobs_completed_total", "Jobs finished with every simulation successful.", "counter", m.jobsCompleted.Load())
	emit("jobs_failed_total", "Jobs finished with at least one failed simulation.", "counter", m.jobsFailed.Load())
	emit("jobs_running", "Jobs currently executing.", "gauge", m.jobsRunning.Load())
	emit("queue_depth", "Jobs queued and not yet executing.", "gauge", queueDepth)
	emit("cache_hits_total", "Specs served from the content-addressed result cache.", "counter", m.cacheHits.Load())
	emit("cache_misses_total", "Specs that missed the result cache.", "counter", m.cacheMisses.Load())
	emit("cache_entries", "Results currently cached.", "gauge", cacheLen)
	emit("cache_evictions_total", "Results the in-memory LRU bound evicted (written behind to the store when one is configured).", "counter", m.cacheEvictions.Load())
	if rs != nil {
		c := rs.Counters()
		emit("store_hits_total", "Specs served from the persistent content-addressed store.", "counter", c.Hits)
		emit("store_misses_total", "Persistent-store lookups that missed.", "counter", c.Misses)
		emit("store_evictions_total", "Results the persistent store's size bound evicted from disk.", "counter", c.Evictions)
		emit("store_corrupt_total", "Persistent-store entries dropped after failing verification.", "counter", c.Corrupt)
		emit("store_write_errors_total", "Result writes to disk that failed (disk full, permissions).", "counter", c.WriteErrors)
		emit("store_dropped_total", "Result writes dropped because the write-behind queue was full.", "counter", c.Dropped)
		emit("store_entries", "Results currently persisted on disk.", "gauge", rs.Len())
		emit("store_bytes", "Total bytes of persisted result files.", "gauge", rs.Size())
	}
	if cs != nil {
		c := cs.Counters()
		emit("ckpt_hits_total", "Architectural boundary states restored from the checkpoint store.", "counter", c.Hits)
		emit("ckpt_misses_total", "Checkpoint lookups that missed and fell back to functional emulation.", "counter", c.Misses)
		emit("ckpt_evictions_total", "Checkpoints the store's size bounds evicted.", "counter", c.Evictions)
		emit("ckpt_corrupt_total", "Persisted checkpoints dropped after failing verification.", "counter", c.Corrupt)
		emit("ckpt_write_errors_total", "Checkpoint writes to disk that failed (disk full, permissions).", "counter", c.WriteErrors)
		emit("ckpt_dropped_total", "Checkpoint writes to disk dropped because the write-behind queue was full.", "counter", c.Dropped)
		emit("ckpt_bytes_read_total", "Bytes of checkpoint state served to restores.", "counter", c.BytesRead)
		emit("ckpt_bytes_written_total", "Bytes of checkpoint state captured into the store.", "counter", c.BytesWritten)
		emit("ckpt_entries", "Checkpoints currently held in memory.", "gauge", cs.Len())
		emit("ckpt_bytes", "Total bytes of in-memory checkpoint state.", "gauge", cs.Size())
		emit("ckpt_disk_entries", "Checkpoints currently persisted on disk.", "gauge", cs.DiskLen())
		emit("ckpt_disk_bytes", "Total bytes of persisted checkpoint files.", "gauge", cs.DiskSize())
	}
	emit("dedup_joins_total", "Specs deduplicated onto an identical in-flight simulation.", "counter", m.dedupJoins.Load())
	emit("sims_run_total", "Simulations executed (cache hits and dedup joins excluded).", "counter", m.simsRun.Load())
	emit("sims_failed_total", "Executed simulations that returned an error.", "counter", m.simsFailed.Load())
	emit("sim_cycles_total", "Cumulative simulated cycles across executed simulations.", "counter", m.simCycles.Load())
	emit("sim_retired_total", "Cumulative retired instructions across executed simulations.", "counter", m.simRetired.Load())
	emit("sim_wall_seconds_total", "Cumulative simulation wall time in seconds.", "counter",
		fmt.Sprintf("%.6f", float64(m.simWallNS.Load())/1e9))
	mips := 0.0
	if wall := float64(m.simWallNS.Load()) / 1e9; wall > 0 {
		mips = float64(m.simRetired.Load()) / wall / 1e6
	}
	emit("sim_mips", "Aggregate simulated throughput: retired instructions per simulation wall second, in millions.", "gauge",
		fmt.Sprintf("%.6f", mips))
	emit("stream_connections", "Open NDJSON streams: job completions and live events.", "gauge", m.streamConns.Load())
	emit("stream_errors_total", "NDJSON streams ended by an encode or write failure, a reader stalled past the write deadline included.", "counter", m.streamErrors.Load())
	emit("events_dropped_total", "Live event frames dropped on full subscriber buffers.", "counter", eventsDropped)
	emit("sim_l1d_hits_total", "Cumulative L1D cache hits across executed simulations.", "counter", m.l1dHits.Load())
	emit("sim_l1d_misses_total", "Cumulative L1D cache misses across executed simulations.", "counter", m.l1dMisses.Load())
	emit("sim_l1d_evictions_total", "Cumulative L1D cache evictions across executed simulations.", "counter", m.l1dEvictions.Load())
	emit("sim_l2_hits_total", "Cumulative L2 cache hits across executed simulations.", "counter", m.l2Hits.Load())
	emit("sim_l2_misses_total", "Cumulative L2 cache misses across executed simulations.", "counter", m.l2Misses.Load())
	emit("sim_l2_evictions_total", "Cumulative L2 cache evictions across executed simulations.", "counter", m.l2Evictions.Load())
	emit("sim_dram_accesses_total", "Cumulative DRAM accesses across executed simulations.", "counter", m.dramAccesses.Load())
	m.requestDur.Write(w, prefix+"request_duration_seconds", "HTTP request handling latency.")
	m.simDur.Write(w, prefix+"sim_duration_seconds", "Executed simulation wall time.")
}
