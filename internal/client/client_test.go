package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mssr/internal/api"
)

func TestNewPromotesBareAddress(t *testing.T) {
	if got := New("127.0.0.1:8371").BaseURL; got != "http://127.0.0.1:8371" {
		t.Errorf("New promoted bare address to %q", got)
	}
	if got := New("https://msrd.example/").BaseURL; got != "https://msrd.example" {
		t.Errorf("New mangled explicit URL to %q", got)
	}
}

// shedServer responds 429 (with the given backoff hint) until `sheds`
// submissions have been rejected, then accepts.
func shedServer(t *testing.T, sheds int, hint api.Error) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/jobs" {
			http.NotFound(w, r)
			return
		}
		n := attempts.Add(1)
		w.Header().Set("Content-Type", "application/json")
		if int(n) <= sheds {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(hint)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(api.SubmitResponse{JobID: "j1", Total: 1})
	}))
	t.Cleanup(ts.Close)
	return ts, &attempts
}

func TestSubmitRetriesAfter429(t *testing.T) {
	ts, attempts := shedServer(t, 2, api.Error{Error: "queue full", RetryAfterMS: 1})
	c := New(ts.URL)
	sub, err := c.Submit(context.Background(), []api.Spec{{Workload: "bfs"}})
	if err != nil {
		t.Fatalf("Submit should have retried through the 429s: %v", err)
	}
	if sub.JobID != "j1" {
		t.Errorf("JobID = %q, want j1", sub.JobID)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("server saw %d submissions, want 3 (2 shed + 1 accepted)", got)
	}
}

func TestSubmitExhaustsRetryBudget(t *testing.T) {
	ts, attempts := shedServer(t, 1<<30, api.Error{Error: "queue full", RetryAfterMS: 1})
	c := New(ts.URL)
	c.SubmitRetries = 2
	_, err := c.Submit(context.Background(), []api.Spec{{Workload: "bfs"}})
	var re *RetryError
	if !errors.As(err, &re) {
		t.Fatalf("error = %v, want *RetryError", err)
	}
	if re.Attempts != 3 {
		t.Errorf("Attempts = %d, want 3 (initial + 2 retries)", re.Attempts)
	}
	if re.RetryAfter != time.Millisecond {
		t.Errorf("RetryAfter = %s, want the server's 1ms hint", re.RetryAfter)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("server saw %d submissions, want 3", got)
	}
}

func TestSubmitDisabledRetries(t *testing.T) {
	ts, attempts := shedServer(t, 1<<30, api.Error{Error: "queue full", RetryAfterMS: 1})
	c := New(ts.URL)
	c.SubmitRetries = -1
	_, err := c.Submit(context.Background(), []api.Spec{{Workload: "bfs"}})
	var re *RetryError
	if !errors.As(err, &re) || re.Attempts != 1 {
		t.Fatalf("error = %v, want *RetryError after exactly one attempt", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("server saw %d submissions, want 1", got)
	}
}

func TestSubmitDoesNotRetryBadRequest(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		_ = json.NewEncoder(w).Encode(api.Error{Error: "spec 0: unknown workload"})
	}))
	t.Cleanup(ts.Close)
	c := New(ts.URL)
	_, err := c.Submit(context.Background(), []api.Spec{{Workload: "nope"}})
	if err == nil {
		t.Fatal("bad request accepted")
	}
	var re *RetryError
	if errors.As(err, &re) {
		t.Errorf("validation failure reported as overload: %v", err)
	}
	if !strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("error %q lost the server's message", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("client retried a non-retryable failure: %d attempts", got)
	}
}

func TestRetryAfterPrefersBodyPrecision(t *testing.T) {
	mk := func(header, body string) *http.Response {
		resp := &http.Response{
			StatusCode: http.StatusTooManyRequests,
			Header:     http.Header{},
			Body:       io.NopCloser(strings.NewReader(body)),
		}
		if header != "" {
			resp.Header.Set("Retry-After", header)
		}
		return resp
	}
	if got := retryAfterOf(mk("3", `{"error":"full","retry_after_ms":120}`)); got != 120*time.Millisecond {
		t.Errorf("body hint ignored: got %s, want 120ms", got)
	}
	if got := retryAfterOf(mk("3", `{"error":"full"}`)); got != 3*time.Second {
		t.Errorf("header fallback broken: got %s, want 3s", got)
	}
	if got := retryAfterOf(mk("", "")); got != time.Second {
		t.Errorf("default backoff: got %s, want 1s", got)
	}
}

// TestWaitFollowsStream: Wait reads the completion stream to its end,
// then fetches the job's status once. A stream that ends while the job
// still runs is an error, not a cue to poll.
func TestWaitFollowsStream(t *testing.T) {
	var statuses atomic.Int64
	var state atomic.Value // the State the status endpoint reports
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		res := api.Result{Index: 0, Key: "bfs/none", Source: api.SourceRun}
		switch r.URL.Path {
		case "/v1/jobs/j1/stream":
			w.Header().Set("Content-Type", "application/x-ndjson")
			_ = json.NewEncoder(w).Encode(res)
		case "/v1/jobs/j1":
			statuses.Add(1)
			st := api.JobStatus{ID: "j1", State: state.Load().(string), Total: 1}
			if st.State == api.StateDone {
				st.Done, st.Results = 1, []api.Result{res}
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(st)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(ts.Close)
	c := New(ts.URL)

	state.Store(api.StateDone)
	st, err := c.Wait(context.Background(), "j1")
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.State != api.StateDone || len(st.Results) != 1 {
		t.Errorf("Wait returned %+v, want the done status", st)
	}
	if got := statuses.Load(); got != 1 {
		t.Errorf("Wait fetched the status %d times, want once", got)
	}

	state.Store(api.StateRunning)
	if st, err := c.Wait(context.Background(), "j1"); err == nil {
		t.Errorf("Wait returned %+v after the stream ended with the job running, want an error", st)
	}
	if got := statuses.Load(); got != 2 {
		t.Errorf("Wait fetched the status %d times in all, want 2", got)
	}
}

// TestStreamReplaysSubmitReply: results a submit reply carries answer
// the next Stream of that job without a request, once. A second Stream,
// a reply without results (a queued job, or a restarted daemon reusing
// the id) and an entry the bound evicted all read the stream endpoint.
func TestStreamReplaysSubmitReply(t *testing.T) {
	var requests, jobs atomic.Int64
	var cached atomic.Bool
	results := func(id string) []api.Result {
		return []api.Result{{Index: 1, Key: id + "/b"}, {Index: 0, Key: id + "/a"}}
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			sub := api.SubmitResponse{JobID: fmt.Sprintf("j%d", jobs.Add(1)), Total: 2}
			if cached.Load() {
				sub.Results = results(sub.JobID)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusAccepted)
			_ = json.NewEncoder(w).Encode(sub)
			return
		}
		id, ok := strings.CutSuffix(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/stream")
		if !ok {
			http.NotFound(w, r)
			return
		}
		for _, res := range results(id) {
			_ = json.NewEncoder(w).Encode(res)
		}
	}))
	t.Cleanup(ts.Close)
	c := New(ts.URL)
	ctx := context.Background()
	submit := func(withResults bool) string {
		t.Helper()
		cached.Store(withResults)
		sub, err := c.Submit(ctx, []api.Spec{{Workload: "bfs"}})
		if err != nil {
			t.Fatal(err)
		}
		return sub.JobID
	}
	// stream checks what Stream yields for id and returns the requests
	// it sent.
	stream := func(id string) int64 {
		t.Helper()
		before := requests.Load()
		var got []api.Result
		if err := c.Stream(ctx, id, func(r api.Result) error {
			got = append(got, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, results(id)) {
			t.Errorf("Stream(%s) yielded %+v, want %+v", id, got, results(id))
		}
		return requests.Load() - before
	}

	id := submit(true)
	if sent := stream(id); sent != 0 {
		t.Errorf("Stream after a reply with results sent %d requests, want none", sent)
	}
	if sent := stream(id); sent != 1 {
		t.Errorf("a second Stream sent %d requests, want 1", sent)
	}
	if sent := stream(submit(false)); sent != 1 {
		t.Errorf("Stream after a reply without results sent %d requests, want 1", sent)
	}

	// A restarted daemon numbers its jobs afresh: a reply without results
	// for an id the client kept drops the kept entry.
	reused := submit(true)
	jobs.Add(-1)
	submit(false)
	if sent := stream(reused); sent != 1 {
		t.Errorf("Stream of a reused job id sent %d requests, want 1", sent)
	}

	first := submit(true)
	var last string
	for i := 0; i < replayJobs; i++ {
		last = submit(true)
	}
	if sent := stream(first); sent != 1 {
		t.Errorf("Stream of an evicted entry sent %d requests, want 1", sent)
	}
	if sent := stream(last); sent != 0 {
		t.Errorf("Stream of the newest entry sent %d requests, want none", sent)
	}
}
