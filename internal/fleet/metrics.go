package fleet

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ringMetrics are the ring dispatcher's counters, exposed as msrfleet_*
// series next to the coordinator server's own (which carry the same
// prefix) and the aggregated worker exposition.
type ringMetrics struct {
	unitsCompleted atomic.Uint64
	retries        atomic.Uint64
	unitFailures   atomic.Uint64
	steals         atomic.Uint64
	unitsStolen    atomic.Uint64
	registrations  atomic.Uint64
}

// handleMetrics serves the fleet-wide exposition: the coordinator
// server's series under the msrfleet_ prefix, the ring's msrfleet_*
// series, then every reachable worker's /metrics with a worker="addr"
// label injected into each sample, HELP/TYPE headers deduplicated
// across workers. One Prometheus scrape of the coordinator observes the
// whole fleet.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	c.srv.WriteMetrics(w, "msrfleet_")
	emit := func(name, typ, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, typ, name, v)
	}
	d := c.ring
	d.mu.Lock()
	var workers []*worker
	var healthy, pending int
	var dispatched uint64
	for _, wk := range d.workers {
		workers = append(workers, wk)
		healthy += up(wk)
		pending += len(wk.queue) + wk.inflight
		dispatched += wk.dispatched.Load()
	}
	sort.Slice(workers, func(i, j int) bool { return workers[i].addr < workers[j].addr })
	perWorker := func(name, help string, v func(*worker) int) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, wk := range workers {
			fmt.Fprintf(w, "%s{worker=%q} %d\n", name, wk.addr, v(wk))
		}
	}
	emit("msrfleet_pending_units", "gauge", "Specs admitted to the ring and not yet resolved.", pending+len(d.orphans))
	emit("msrfleet_orphan_units", "gauge", "Specs parked with no healthy worker to queue on.", len(d.orphans))
	emit("msrfleet_workers", "gauge", "Workers in the ring.", len(workers))
	emit("msrfleet_workers_healthy", "gauge", "Workers passing health checks.", healthy)
	perWorker("msrfleet_worker_up", "Whether the worker passes health checks.", up)
	perWorker("msrfleet_worker_queue_depth", "Specs queued on the worker's shard.", func(wk *worker) int { return len(wk.queue) })
	perWorker("msrfleet_worker_inflight", "Specs dispatched to the worker and unresolved.", func(wk *worker) int { return wk.inflight })
	d.mu.Unlock()

	m := &d.met
	emit("msrfleet_units_dispatched_total", "counter", "Specs handed to workers (retries re-count).", dispatched)
	emit("msrfleet_units_completed_total", "counter", "Specs resolved by the ring (including dispatch failures).", m.unitsCompleted.Load())
	emit("msrfleet_retries_total", "counter", "Specs re-queued after a worker failure.", m.retries.Load())
	emit("msrfleet_unit_failures_total", "counter", "Specs that exhausted their attempt budget.", m.unitFailures.Load())
	emit("msrfleet_steals_total", "counter", "Work-stealing events between shard queues.", m.steals.Load())
	emit("msrfleet_units_stolen_total", "counter", "Specs moved by work stealing.", m.unitsStolen.Load())
	emit("msrfleet_worker_registrations_total", "counter", "Workers added to the ring (static and dynamic).", m.registrations.Load())
	d.probeDur.Write(w, "msrfleet_probe_duration_seconds", "Worker health probe round-trip time.")

	// Union the workers' expositions under per-worker labels. Fetch
	// concurrently (a down worker costs one timeout, not a serial stall)
	// but emit in stable address order.
	texts := make([]string, len(workers))
	var wg sync.WaitGroup
	for i, wk := range workers {
		wg.Add(1)
		go func(i int, wk *worker) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
			defer cancel()
			if text, err := wk.cl.Metrics(ctx); err == nil {
				texts[i] = text
			}
		}(i, wk)
	}
	wg.Wait()

	seenHeader := make(map[string]bool)
	for i, wk := range workers {
		if texts[i] == "" {
			continue
		}
		relabelExposition(w, texts[i], wk.addr, seenHeader)
	}
}

// up is a worker's health as a 0/1 gauge value; callers hold d.mu.
func up(wk *worker) int {
	if wk.healthy {
		return 1
	}
	return 0
}

// relabelExposition rewrites one worker's Prometheus text exposition,
// injecting worker="addr" into every sample and deduplicating HELP/TYPE
// headers across workers (Prometheus rejects repeated headers for a
// metric name).
func relabelExposition(w io.Writer, text, addr string, seenHeader map[string]bool) {
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			// "# HELP name ..." / "# TYPE name ..." — keep the first
			// worker's copy only.
			fields := strings.Fields(line)
			if len(fields) >= 3 && (fields[1] == "HELP" || fields[1] == "TYPE") {
				key := fields[1] + " " + fields[2]
				if seenHeader[key] {
					continue
				}
				seenHeader[key] = true
			}
			fmt.Fprintln(w, line)
			continue
		}
		fmt.Fprintln(w, injectLabel(line, addr))
	}
}

// injectLabel adds worker="addr" to one exposition sample line:
// `name 3` -> `name{worker="addr"} 3`,
// `name{a="b"} 3` -> `name{worker="addr",a="b"} 3`.
func injectLabel(line, addr string) string {
	sp := strings.IndexAny(line, " \t")
	if sp < 0 {
		return line
	}
	series, rest := line[:sp], line[sp:]
	label := fmt.Sprintf("worker=%q", addr)
	if brace := strings.IndexByte(series, '{'); brace >= 0 {
		return series[:brace+1] + label + "," + series[brace+1:] + rest
	}
	return series + "{" + label + "}" + rest
}
