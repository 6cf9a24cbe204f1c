package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mssr/internal/api"
	"mssr/internal/client"
	"mssr/internal/server"
	"mssr/internal/sim"
)

// countingDaemon serves cfg like newTestDaemon, counting every HTTP
// request the daemon receives.
func countingDaemon(t *testing.T, cfg server.Config) (*server.Server, *client.Client, *atomic.Int64) {
	t.Helper()
	srv := server.New(cfg)
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, client.New(ts.URL), &requests
}

// rawStream reads GET /v1/jobs/{id}/stream line by line.
func rawStream(t *testing.T, c *client.Client, id string) [][]byte {
	t.Helper()
	resp, err := http.Get(c.BaseURL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines [][]byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 8<<20)
	for sc.Scan() {
		lines = append(lines, bytes.Clone(sc.Bytes()))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// streamed runs c.Stream on job id, returning what it yielded, each
// result re-encoded, and how many requests the daemon saw meanwhile.
func streamed(t *testing.T, c *client.Client, requests *atomic.Int64, id string) ([][]byte, int64) {
	t.Helper()
	before := requests.Load()
	var got [][]byte
	err := c.Stream(context.Background(), id, func(r api.Result) error {
		b, err := json.Marshal(r)
		got = append(got, b)
		return err
	})
	if err != nil {
		t.Fatalf("Stream %s: %v", id, err)
	}
	return got, requests.Load() - before
}

// TestCachedSubmitRepliesWithResults: a job the cache answers whole
// comes back with its results in the submit reply, and the client's next
// Stream of it replays them without a request, yielding what the stream
// endpoint yields. A queued job's reply carries none, and a second Stream
// reads the endpoint again.
func TestCachedSubmitRepliesWithResults(t *testing.T) {
	_, c, requests := countingDaemon(t, server.Config{})
	ctx := context.Background()
	cold, err := c.Submit(ctx, microSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if cold.Results != nil {
		t.Errorf("a queued job's reply carries %d results, want none", len(cold.Results))
	}
	if _, sent := streamed(t, c, requests, cold.JobID); sent != 1 {
		t.Errorf("streaming a queued job took %d requests, want 1", sent)
	}

	hit, err := c.Submit(ctx, microSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if len(hit.Results) != len(microSpecs()) {
		t.Fatalf("a cached job's reply carries %d results, want %d", len(hit.Results), len(microSpecs()))
	}
	got, sent := streamed(t, c, requests, hit.JobID)
	if sent != 0 {
		t.Errorf("Stream after a cached submit sent %d requests, want none", sent)
	}
	want := rawStream(t, c, hit.JobID)
	if len(got) != len(want) {
		t.Fatalf("replay yielded %d results, the stream endpoint %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("result %d: replayed\n%s\nstreamed\n%s", i, got[i], want[i])
		}
	}
	again, sent := streamed(t, c, requests, hit.JobID)
	if sent != 1 || len(again) != len(want) {
		t.Errorf("a second Stream took %d requests and yielded %d results, want 1 and %d", sent, len(again), len(want))
	}
}

// TestCachedReplyOverBudgetOmitsResults: a cached job whose results do not
// fit the reply budget gets the reply a queued job gets, and its client
// reads the stream endpoint.
func TestCachedReplyOverBudgetOmitsResults(t *testing.T) {
	_, c, requests := countingDaemon(t, server.Config{})
	ctx := context.Background()
	specs := microSpecs()
	for i := range specs {
		specs[i].SampleInterval = 32
	}
	cold, err := c.Submit(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, cold.JobID); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(api.SubmitRequest{Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.BaseURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmission: %s %v", resp.Status, err)
	}
	var sub map[string]json.RawMessage
	if err := json.Unmarshal(reply, &sub); err != nil {
		t.Fatal(err)
	}
	var id string
	if err := json.Unmarshal(sub["job_id"], &id); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`{"job_id":%q,"total":%d}`+"\n", id, len(specs))
	if string(reply) != want {
		t.Errorf("over-budget reply %.200s, want %s", reply, want)
	}
	size := 0
	for _, line := range rawStream(t, c, id) {
		size += len(line)
	}
	if size <= server.ReplyBytes {
		t.Fatalf("the job's results take %d bytes, within the %d-byte budget: the test needs more", size, server.ReplyBytes)
	}
	if got, sent := streamed(t, c, requests, id); sent != 1 || len(got) != len(specs) {
		t.Errorf("Stream took %d requests and yielded %d results, want 1 and %d", sent, len(got), len(specs))
	}
}

// TestDaemonJobsShareOneCore: a daemon's per-job Runners draw from one
// core pool, so twenty jobs of distinct RGID geometries, one at a time,
// run on one core whose engine each rebuilds.
func TestDaemonJobsShareOneCore(t *testing.T) {
	srv, _, c := newTestDaemon(t, server.Config{SimJobs: 1})
	ctx := context.Background()
	const jobs = 20
	for i := 0; i < jobs; i++ {
		spec := api.Spec{Workload: "nested-mispred", Scale: 0, Engine: "rgid", Streams: 1 + i%4, Entries: 16 + i}
		sub, err := c.Submit(ctx, []api.Spec{spec})
		if err != nil {
			t.Fatal(err)
		}
		st, err := c.Wait(ctx, sub.JobID)
		if err != nil || st.Results[0].Error != "" || st.Results[0].Source != api.SourceRun {
			t.Fatalf("job %d: err %v, status %+v", i, err, st)
		}
	}
	if cores, engines := server.CorePool(srv).Builds(); cores != 1 || engines != jobs-1 {
		t.Errorf("the daemon built %d cores and rebuilt %d engines, want 1 and %d", cores, engines, jobs-1)
	}
}

// TestConcurrentDaemonJobsSharePool runs two daemon jobs at once on the
// shared core pool, twice over fresh geometries so the second round draws
// cores the first returned. Every result must match the spec run alone
// in-process, and the pool builds no more cores than can run at once.
func TestConcurrentDaemonJobsSharePool(t *testing.T) {
	srv, _, c := newTestDaemon(t, server.Config{Workers: 2, SimJobs: 2})
	ctx := context.Background()
	job := func(workload string, round int) []api.Spec {
		return []api.Spec{
			{Workload: workload, Scale: 0, Engine: "rgid", Streams: 2, Entries: 16 + round},
			{Workload: workload, Scale: 0, Engine: "ri", Sets: 16 << round, Ways: 2},
			{Workload: workload, Scale: 0, Engine: "dir-value", Sets: 16 << round, Ways: 2},
		}
	}
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		for _, w := range []string{"nested-mispred", "linear-mispred"} {
			specs := job(w, round)
			wg.Add(1)
			go func() {
				defer wg.Done()
				sub, err := c.Submit(ctx, specs)
				if err != nil {
					t.Error(err)
					return
				}
				st, err := c.Wait(ctx, sub.JobID)
				if err != nil {
					t.Error(err)
					return
				}
				for i, ws := range specs {
					sp, err := ws.Sim()
					if err != nil {
						t.Error(err)
						return
					}
					local, err := (&sim.Runner{Jobs: 1}).Run(ctx, []sim.Spec{sp})
					if err != nil {
						t.Error(err)
						return
					}
					if got, want := normalize(st.Results[i]), normalize(api.ResultFromSim(local[0], api.SourceRun)); !bytes.Equal(got, want) {
						t.Errorf("%s: daemon result differs from a lone run:\ndaemon: %s\nlone:   %s", sp.Key(), got, want)
					}
				}
			}()
		}
		wg.Wait()
	}
	if cores, _ := server.CorePool(srv).Builds(); cores > 4 {
		t.Errorf("the pool built %d cores for at most 4 simulations at once", cores)
	}
}

// normalize is a result's content, without what describes how the
// daemon served it.
func normalize(r api.Result) []byte {
	r.Index, r.Key, r.Source, r.WallNS, r.MIPS = 0, "", "", 0, 0
	b, _ := json.Marshal(r)
	return b
}

// TestRemoteCachedRunTakesOneRequest: a Remote sweep the daemon's cache
// answers whole costs the submission alone, and comes back as the cold
// run did, observer notifications included.
func TestRemoteCachedRunTakesOneRequest(t *testing.T) {
	_, c, requests := countingDaemon(t, server.Config{})
	var specs []sim.Spec
	for _, ws := range microSpecs() {
		sp, err := ws.Sim()
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, sp)
	}
	var finishes int
	remote := &client.Remote{Client: c, Observer: observerFunc(func() { finishes++ })}
	cold, err := remote.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	before := requests.Load()
	hit, err := remote.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if sent := requests.Load() - before; sent != 1 {
		t.Errorf("a cached Remote run sent %d requests, want 1", sent)
	}
	for i := range specs {
		if hit[i].Index != i || hit[i].Key != specs[i].Key() || !reflect.DeepEqual(hit[i].Stats, cold[i].Stats) {
			t.Errorf("cached result %d (%s) differs from the cold run's (%s)", i, hit[i].Key, cold[i].Key)
		}
	}
	if finishes != 2*len(specs) {
		t.Errorf("observer saw %d finishes, want %d", finishes, 2*len(specs))
	}
}
