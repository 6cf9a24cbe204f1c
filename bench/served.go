package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mssr/internal/api"
	"mssr/internal/client"
	"mssr/internal/events"
	"mssr/internal/fleet"
	"mssr/internal/server"
	"mssr/internal/sim"
	"mssr/internal/store"
	"mssr/internal/workloads"
)

const (
	servedWorkers = 2
	servedClients = 2
	// servedCache bounds each worker's in-memory result cache, small
	// enough that repeats of early specs fall through to the disk store.
	servedCache = 256
	// resimulated is how many misses are re-simulated in-process to check
	// the fleet's results.
	resimulated = 50
)

// handlerLog times, while enabled, each job a server handles: from the
// start of its submit request to the end of its result stream, matched
// by the job id in the submit response. It wraps the server's handler
// from outside; the server under test is unchanged.
type handlerLog struct {
	next    http.Handler
	name    string  // span name
	tr      *tracer // set before on
	on      atomic.Bool
	mu      sync.Mutex
	started map[string]time.Time // job id -> submit start
	totalNS int64
	shed    int
	ms      []float64 // per job
}

// jobWriter keeps a copy of a submit response, for its job id.
type jobWriter struct {
	http.ResponseWriter
	code int
	body bytes.Buffer
}

func (w *jobWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *jobWriter) Write(b []byte) (int, error) {
	w.body.Write(b)
	return w.ResponseWriter.Write(b)
}

func (h *handlerLog) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		t := time.Now()
		jw := &jobWriter{ResponseWriter: w}
		h.next.ServeHTTP(jw, r)
		var sub api.SubmitResponse
		h.mu.Lock()
		defer h.mu.Unlock()
		if jw.code == http.StatusTooManyRequests {
			h.shed++
		} else if json.Unmarshal(jw.body.Bytes(), &sub) == nil && sub.JobID != "" {
			h.started[sub.JobID] = t
		}
	case strings.HasSuffix(r.URL.Path, "/stream"):
		h.next.ServeHTTP(w, r)
		end := time.Now()
		id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/stream")
		h.mu.Lock()
		defer h.mu.Unlock()
		if t, ok := h.started[id]; ok {
			delete(h.started, id)
			h.tr.record(h.name, id, 0, t, end)
			d := end.Sub(t)
			h.totalNS += d.Nanoseconds()
			h.ms = append(h.ms, float64(d.Microseconds())/1000)
		}
	default:
		h.next.ServeHTTP(w, r)
	}
}

// totals returns the summed job time (ns), the per-job times (ms) and the
// submissions shed with 429.
func (h *handlerLog) totals() (float64, []float64, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.totalNS), append([]float64(nil), h.ms...), h.shed
}

// rig is a loopback fleet: a coordinator over two msrd workers, each
// with its own disk store, all in this process.
type rig struct {
	dir      string
	workers  []*server.Server
	stores   []*store.Store
	coord    *fleet.Coordinator
	httpSrvs []*http.Server
	serving  sync.WaitGroup
	logs     []*handlerLog // workers..., coordinator last
	url      string
}

func (g *rig) serve(h http.Handler, name string) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	log := &handlerLog{next: h, name: name, started: map[string]time.Time{}}
	g.logs = append(g.logs, log)
	hs := &http.Server{Handler: log}
	g.httpSrvs = append(g.httpSrvs, hs)
	g.serving.Add(1)
	go func() {
		defer g.serving.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

func startRig(dir string) (*rig, error) {
	g := &rig{dir: dir}
	var addrs []string
	for i := 0; i < servedWorkers; i++ {
		st, err := store.Open(filepath.Join(dir, fmt.Sprintf("store%d", i)), 0, nil)
		if err != nil {
			g.stop()
			return nil, err
		}
		g.stores = append(g.stores, st)
		w := server.New(server.Config{SimJobs: 1, CacheEntries: servedCache, Store: st})
		g.workers = append(g.workers, w)
		addr, err := g.serve(w, "server.job")
		if err != nil {
			g.stop()
			return nil, err
		}
		addrs = append(addrs, addr)
	}
	g.coord = fleet.New(fleet.Config{Workers: addrs})
	url, err := g.serve(g.coord, "fleet.job")
	if err != nil {
		g.stop()
		return nil, err
	}
	g.url = url
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl := client.New(url)
	for cl.Ready(ctx) != nil {
		select {
		case <-ctx.Done():
			g.stop()
			return nil, errors.New("fleet never became ready")
		case <-time.After(2 * time.Millisecond):
		}
	}
	// Warm the fleet with one baseline-core run of each program: a key
	// space the generator never draws from.
	var warm []api.Spec
	for _, name := range specPrograms() {
		warm = append(warm, api.Spec{Workload: name})
	}
	sub, err := cl.Submit(ctx, warm)
	if err == nil {
		err = cl.Stream(ctx, sub.JobID, func(r api.Result) error {
			if r.Error != "" {
				return errors.New(r.Error)
			}
			return nil
		})
	}
	if err != nil {
		g.stop()
		return nil, fmt.Errorf("fleet warm-up: %w", err)
	}
	return g, nil
}

// stop shuts the fleet down and waits for every serving goroutine.
func (g *rig) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if g.coord != nil {
		_ = g.coord.Shutdown(ctx)
	}
	for i := len(g.httpSrvs) - 1; i >= 0; i-- {
		_ = g.httpSrvs[i].Shutdown(ctx)
	}
	for _, w := range g.workers {
		_ = w.Shutdown(ctx)
	}
	for _, st := range g.stores {
		st.Close()
	}
	g.serving.Wait()
}

// setupServed builds the programs the workers serve and starts and warms
// the fleet, reps times; setup_s is the median.
func setupServed(workdir string, reps int) (*rig, float64, time.Duration, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, 0, 0, err
	}
	var times []float64
	var g *rig
	var build time.Duration
	for i := 0; i < reps; i++ {
		if g != nil {
			g.stop()
			_ = os.RemoveAll(g.dir)
		}
		t := time.Now()
		build = 0
		for _, name := range specPrograms() {
			if _, err := workloads.Build(name, 0); err != nil {
				return nil, 0, 0, err
			}
		}
		build = time.Since(t)
		dir, err := os.MkdirTemp(workdir, "served-*")
		if err != nil {
			return nil, 0, 0, err
		}
		if g, err = startRig(dir); err != nil {
			_ = os.RemoveAll(dir)
			return nil, 0, 0, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return g, median(times), build, nil
}

// reply is one completed request as its client saw it.
type reply struct {
	req      request
	res      api.Result
	ms       float64
	submitMS float64
	done     time.Duration // since the phase started
	err      error
}

// loadPhase is the outcome of one closed-loop phase.
type loadPhase struct {
	wall    time.Duration
	replies []reply
}

// closedLoop runs servedClients clients, each sending its next request
// when the previous one completes, until budget has elapsed. With a
// tracer, each request is a client.request span.
func closedLoop(url string, gen *generator, genMu *sync.Mutex, budget time.Duration, tr *tracer) loadPhase {
	ctx := context.Background()
	var mu sync.Mutex
	var ph loadPhase
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < servedClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := client.New(url)
			for time.Since(start) < budget {
				genMu.Lock()
				req := gen.next()
				genMu.Unlock()
				rp := reply{req: req}
				t := time.Now()
				sub, err := cl.Submit(ctx, []api.Spec{req.Spec})
				rp.submitMS = float64(time.Since(t).Microseconds()) / 1000
				if err == nil {
					err = cl.Stream(ctx, sub.JobID, func(r api.Result) error {
						rp.res = r
						return nil
					})
				}
				end := time.Now()
				rp.ms = float64(end.Sub(t).Microseconds()) / 1000
				rp.done = end.Sub(start)
				if err == nil && rp.res.CacheKey == "" {
					err = errors.New("stream ended without a result")
				}
				rp.err = err
				if tr != nil {
					tr.record("client.request", req.Key, 0, t, end)
				}
				mu.Lock()
				ph.replies = append(ph.replies, rp)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	return ph
}

// normalized is a result's content: everything except the fields that
// describe how this particular request was served.
func normalized(r api.Result) []byte {
	r.Index, r.Key, r.Source, r.WallNS, r.MIPS = 0, "", "", 0, 0
	b, _ := json.Marshal(r)
	return b
}

// served checks the replies: every result must be free of errors and
// byte-identical to the first result delivered for its key.
type servedCheck struct {
	first map[string][]byte
}

func (c *servedCheck) add(r *Result, rp *reply) bool {
	r.Attempted++
	switch {
	case rp.err != nil:
		r.fail("%s: %v", rp.req.Key, rp.err)
		return false
	case rp.res.Error != "":
		r.fail("%s: %s", rp.req.Key, rp.res.Error)
		return false
	case rp.res.CacheKey != rp.req.Key:
		r.fail("%s: result for %s", rp.req.Key, rp.res.CacheKey)
		return false
	}
	b := normalized(rp.res)
	if want, ok := c.first[rp.req.Key]; !ok {
		c.first[rp.req.Key] = b
	} else if string(b) != string(want) {
		r.fail("%s: %s result differs from the key's first result", rp.req.Key, rp.res.Source)
		return false
	}
	return true
}

// resimulate re-runs a seeded sample of the misses in-process and
// compares them with what the fleet returned.
func (c *servedCheck) resimulate(seed int64, misses []request, r *Result) {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(misses), func(i, j int) { misses[i], misses[j] = misses[j], misses[i] })
	if len(misses) > resimulated {
		misses = misses[:resimulated]
	}
	for _, m := range misses {
		r.Attempted++
		sp, err := m.Spec.Sim()
		if err != nil {
			r.fail("resimulate %s: %v", m.Key, err)
			continue
		}
		res, err := sim.Run(context.Background(), sp)
		if err != nil {
			r.fail("resimulate %s: %v", m.Key, err)
			continue
		}
		if string(normalized(api.ResultFromSim(res, api.SourceRun))) != string(c.first[m.Key]) {
			r.fail("resimulate %s: in-process result differs from the fleet's", m.Key)
		}
	}
	r.Samples["resimulated"] = len(misses)
}

func runServed(o options, _ *golden, r *Result, tr *tracer) error {
	g, setup, build, err := setupServed(o.workdir, o.setups())
	if err != nil {
		return err
	}
	defer func() {
		g.stop()
		_ = os.RemoveAll(g.dir)
	}()
	gen := newGenerator(o.seed, specPrograms())
	var genMu sync.Mutex
	budget := time.Duration(o.seconds) * time.Second
	chk := &servedCheck{first: map[string][]byte{}}
	var misses []request

	// tally checks a phase's replies and cuts it into one-second samples
	// by completion time; the last, partial second is dropped.
	tally := func(ph loadPhase) (all, hit, miss []float64, sm samples, ok int) {
		type window struct {
			retired uint64
			n       int
			ms      []float64
		}
		wins := make([]window, int(ph.wall/time.Second))
		for i := range ph.replies {
			rp := &ph.replies[i]
			if !chk.add(r, rp) {
				continue
			}
			ok++
			all = append(all, rp.ms)
			if k := int(rp.done / time.Second); k < len(wins) {
				wins[k].retired += rp.res.Retired
				wins[k].n++
				wins[k].ms = append(wins[k].ms, rp.ms)
			}
			if rp.res.Source == api.SourceRun {
				miss = append(miss, rp.ms)
				misses = append(misses, rp.req)
			} else {
				hit = append(hit, rp.ms)
			}
		}
		for _, w := range wins {
			sm.add(float64(w.retired), float64(w.n), w.ms)
		}
		return
	}

	if tr == nil {
		ph := closedLoop(g.url, gen, &genMu, budget, nil)
		_, hit, miss, sm, ok := tally(ph)
		chk.resimulate(o.seed, misses, r)
		r.Metrics["setup_s"] = Metric{setup, "s"}
		sm.report(r)
		r.Detail["hit_p50_ms"] = Metric{percentile(hit, 0.5), "ms"}
		r.Detail["hit_p99_ms"] = Metric{percentile(hit, 0.99), "ms"}
		r.Detail["miss_p50_ms"] = Metric{percentile(miss, 0.5), "ms"}
		r.Detail["miss_p99_ms"] = Metric{percentile(miss, 0.99), "ms"}
		r.Detail["served_rps"] = Metric{float64(ok) / ph.wall.Seconds(), "req/s"}
		r.Samples["requests"] = len(ph.replies)
		r.Samples["hits"] = len(hit)
		r.Samples["misses"] = len(miss)
		r.Samples["setups"] = o.setups()
		return nil
	}

	// Traced: an untraced half, then a traced half with the handlers
	// timed, the workers' event buses subscribed and /metrics scraped
	// around it.
	base := closedLoop(g.url, gen, &genMu, budget/2, nil)
	tally(base)
	cl := client.New(g.url)
	ctx := context.Background()
	before, err := scrape(ctx, cl)
	if err != nil {
		return err
	}
	bus := subscribe(g.workers)
	for _, l := range g.logs {
		l.tr = tr
		l.on.Store(true)
	}
	ph := closedLoop(g.url, gen, &genMu, budget/2, tr)
	for _, l := range g.logs {
		l.on.Store(false)
	}
	ev := bus.close()
	after, err := scrape(ctx, cl)
	if err != nil {
		return err
	}
	workersInfo, err := cl.Workers(ctx)
	if err != nil {
		return err
	}
	all, _, _, _, ok := tally(ph)
	chk.resimulate(o.seed, misses, r)

	set := func(name string, v float64) { r.Metrics[name] = Metric{v, unitOf(name)} }
	latNS := sum(all) * 1e6
	coordNS, coordMS, coordShed := g.logs[len(g.logs)-1].totals()
	var workerNS float64
	var workerMS []float64
	for _, l := range g.logs[:len(g.logs)-1] {
		ns, ms, _ := l.totals()
		workerNS += ns
		workerMS = append(workerMS, ms...)
	}
	queueNS, runNS := ev.queueMS*1e6, sum(ev.runMS)*1e6
	// The levels nest: a request's client latency holds its job's time at
	// the coordinator, which holds the worker sub-job's time, which holds
	// the queue wait and the simulation. Each leaf is its level minus the
	// next; a leaf that comes out negative is clamped, and the overlap
	// shows as a negative unattributed share.
	attributed := 0.0
	for name, ns := range map[string]float64{
		"client.self_pct": latNS - coordNS,
		"fleet.hop_pct":   coordNS - workerNS,
		"server.self_pct": workerNS - runNS,
		"sim.run_pct":     runNS,
	} {
		ns = max(ns, 0)
		set(name, pct(ns, latNS))
		attributed += ns
	}
	set("server.queue_pct", pct(queueNS, latNS)) // part of server.self_pct
	set("sim.unattributed_frac", 1-attributed/latNS)
	// Time per request, traced over untraced.
	set("trace.overhead_frac", ratio(ph.wall.Seconds()*float64(len(base.replies)), base.wall.Seconds()*float64(len(ph.replies)))-1)
	set("workloads.build_s", build.Seconds())
	var cycles, retired uint64
	for i := range ph.replies {
		if res := &ph.replies[i].res; res.Source == api.SourceRun {
			cycles += res.Cycles
			retired += res.Retired
		}
	}
	set("core.cycles", float64(cycles))
	set("core.retired", float64(retired))
	set("core.ns_per_cycle", ratio(runNS, float64(cycles)))
	set("sim.spec_ms_p50", percentile(ev.runMS, 0.5))
	set("sim.spec_ms_p99", percentile(ev.runMS, 0.99))
	var results []api.Result
	for i := range ph.replies {
		results = append(results, ph.replies[i].res)
	}
	enc, dec := apiProbe(results)
	set("api.encode_us", enc)
	set("api.decode_us", dec)
	delta := func(name string) float64 { return after[name] - before[name] }
	set("server.cache_hit_ratio", ratio(delta("msrd_cache_hits_total"), delta("msrd_cache_hits_total")+delta("msrd_cache_misses_total")))
	set("server.dedup", delta("msrd_dedup_joins_total"))
	set("server.shed", delta("msrd_jobs_rejected_total"))
	set("store.hits", delta("msrd_store_hits_total"))
	set("store.misses", delta("msrd_store_misses_total"))
	set("store.writes", delta("msrd_store_entries"))
	set("fleet.retries", delta("msrfleet_retries_total"))
	set("fleet.steals", delta("msrfleet_steals_total"))
	set("client.retries", float64(coordShed))
	var lo, hi, tot float64
	for i, w := range workersInfo {
		c := float64(w.Completed)
		if i == 0 || c < lo {
			lo = c
		}
		hi = max(hi, c)
		tot += c
	}
	set("fleet.worker_skew", ratio(hi-lo, tot/float64(len(workersInfo))))
	fillZeros(r.Metrics)

	var submitMS, streamMS []float64
	for i := range ph.replies {
		submitMS = append(submitMS, ph.replies[i].submitMS)
		streamMS = append(streamMS, ph.replies[i].ms-ph.replies[i].submitMS)
	}
	r.Detail["client.submit_ms_p50"] = Metric{percentile(submitMS, 0.5), "ms"}
	r.Detail["client.submit_ms_p99"] = Metric{percentile(submitMS, 0.99), "ms"}
	r.Detail["client.stream_ms_p50"] = Metric{percentile(streamMS, 0.5), "ms"}
	r.Detail["fleet.job_ms_p50"] = Metric{percentile(coordMS, 0.5), "ms"}
	r.Detail["server.job_ms_p50"] = Metric{percentile(workerMS, 0.5), "ms"}
	r.Detail["server.queue_ms_p50"] = Metric{percentile(ev.queueAll, 0.5), "ms"}
	r.Detail["server.spec_ms_p50"] = Metric{percentile(ev.runMS, 0.5), "ms"}
	r.Samples["requests_untraced"] = len(base.replies)
	r.Samples["requests_traced"] = ok
	r.Samples["events_dropped"] = int(ev.dropped)
	return nil
}

// busTap drains the workers' event buses during the traced phase.
type busTap struct {
	subs []*events.Subscriber
	wg   sync.WaitGroup
	mu   sync.Mutex
	out  busEvents
}

// busEvents is what the traced phase read off the buses: queue waits
// (job_start) and the wall time and work of every executed simulation
// (spec_done with source run).
type busEvents struct {
	queueMS  float64
	queueAll []float64
	runMS    []float64
	dropped  uint64
}

// subscribeBuffer holds every event of a traced phase without drops.
const subscribeBuffer = 1 << 16

func subscribe(workers []*server.Server) *busTap {
	b := &busTap{}
	for _, w := range workers {
		sub := w.Hub().Subscribe("", subscribeBuffer)
		b.subs = append(b.subs, sub)
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			for e := range sub.C() {
				b.mu.Lock()
				switch {
				case e.Type == events.TypeJobStart:
					b.out.queueMS += e.QueueMS
					b.out.queueAll = append(b.out.queueAll, e.QueueMS)
				case e.Type == events.TypeSpecDone && e.Source == api.SourceRun:
					b.out.runMS = append(b.out.runMS, e.WallMS)
				}
				b.mu.Unlock()
			}
		}()
	}
	return b
}

func (b *busTap) close() busEvents {
	for _, s := range b.subs {
		s.Close()
		b.out.dropped += s.Dropped()
	}
	b.wg.Wait()
	return b.out
}

// scrape reads the coordinator's /metrics — its own series plus every
// worker's, labelled — and sums each series over its labels.
func scrape(ctx context.Context, cl *client.Client) (map[string]float64, error) {
	text, err := cl.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, _ := strings.Cut(line, " ")
		if i := strings.IndexByte(name, '{'); i >= 0 {
			// Labels may hold spaces only inside quotes; take the value
			// after the closing brace.
			j := strings.LastIndexByte(line, '}')
			name, rest = line[:i], strings.TrimSpace(line[j+1:])
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, nil
}
