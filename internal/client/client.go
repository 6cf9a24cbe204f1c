// Package client is the typed Go client for the msrd simulation daemon
// (internal/server). Client covers the raw /v1 API — submit, status and
// the NDJSON streams — and Remote adapts it to the sim.Backend
// interface so the experiment drivers run against a daemon unchanged.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"mssr/internal/api"
)

// Client talks to one msrd daemon.
type Client struct {
	// BaseURL is the daemon's root, e.g. "http://127.0.0.1:8371".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// SubmitRetries is how many times Submit resubmits after a 429,
	// honouring the server's Retry-After each time (default 5; negative
	// disables retrying).
	SubmitRetries int

	// replays holds the results submit replies carried, oldest first,
	// for the next Stream of each job: at most replayJobs entries.
	replayMu sync.Mutex
	replays  []replay
}

// replay is the completion stream a submit reply carried for job id.
type replay struct {
	id      string
	results []api.Result
}

// replayJobs bounds how many jobs' submit-reply results a Client keeps
// for the Stream that follows: an entry nobody streams is dropped once
// replayJobs later replies have carried results.
const replayJobs = 16

// New returns a client for the daemon at baseURL. A bare "host:port" is
// promoted to "http://host:port".
func New(baseURL string) *Client {
	if !strings.Contains(baseURL, "://") {
		baseURL = "http://" + baseURL
	}
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// RetryError is returned when the daemon sheds load and the retry budget
// is exhausted.
type RetryError struct {
	// RetryAfter is the server's last backoff hint.
	RetryAfter time.Duration
	// Attempts is how many submissions were shed.
	Attempts int
}

func (e *RetryError) Error() string {
	return fmt.Sprintf("client: daemon overloaded: %d submissions shed with 429 (last Retry-After %s)", e.Attempts, e.RetryAfter)
}

// Submit posts a batch of specs and returns the daemon's job id. On 429
// it waits out the server's Retry-After hint and resubmits, up to
// SubmitRetries times; exhaustion returns a *RetryError. A reply that
// carries the job's results (a job the daemon's cache answered whole)
// is kept for the next Stream of the job, which then sends no request.
func (c *Client) Submit(ctx context.Context, specs []api.Spec) (*api.SubmitResponse, error) {
	retries := c.SubmitRetries
	if retries == 0 {
		retries = 5
	}
	if retries < 0 {
		retries = 0
	}
	body, err := json.Marshal(api.SubmitRequest{Specs: specs})
	if err != nil {
		return nil, fmt.Errorf("client: encoding specs: %w", err)
	}
	var last *RetryError
	for attempt := 0; ; attempt++ {
		resp, retryAfter, err := c.trySubmit(ctx, body)
		if err == nil {
			c.keep(resp.JobID, resp.Results)
			return resp, nil
		}
		if retryAfter < 0 {
			return nil, err
		}
		last = &RetryError{RetryAfter: retryAfter, Attempts: attempt + 1}
		if attempt >= retries {
			return nil, last
		}
		select {
		case <-time.After(retryAfter):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// trySubmit performs one submission. A negative retryAfter means the
// failure is not retryable.
func (c *Client) trySubmit(ctx context.Context, body []byte) (*api.SubmitResponse, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/jobs", strings.NewReader(string(body)))
	if err != nil {
		return nil, -1, fmt.Errorf("client: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, -1, fmt.Errorf("client: submit: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		return nil, retryAfterOf(resp), fmt.Errorf("client: daemon shed submission: %s", apiError(resp))
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, -1, fmt.Errorf("client: submit: %s: %s", resp.Status, apiError(resp))
	}
	var out api.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, -1, fmt.Errorf("client: decoding submit response: %w", err)
	}
	return &out, 0, nil
}

// retryAfterOf extracts the server's backoff hint, preferring the JSON
// body's millisecond precision over the whole-second header.
func retryAfterOf(resp *http.Response) time.Duration {
	var e api.Error
	if body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16)); err == nil {
		if json.Unmarshal(body, &e) == nil && e.RetryAfterMS > 0 {
			return time.Duration(e.RetryAfterMS) * time.Millisecond
		}
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		return time.Duration(secs) * time.Second
	}
	return time.Second
}

// Job fetches a job's status.
func (c *Client) Job(ctx context.Context, id string) (*api.JobStatus, error) {
	var out api.JobStatus
	if err := c.getJSON(ctx, "/v1/jobs/"+id, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Wait follows the job's completion stream to its end and returns the
// job's final status. The daemon ends the stream exactly when the job is
// done, so a stream that ends while the job still runs is an error.
func (c *Client) Wait(ctx context.Context, id string) (*api.JobStatus, error) {
	return c.follow(ctx, id, func(api.Result) error { return nil })
}

// follow is Wait with fn called for every completion on the way.
func (c *Client) follow(ctx context.Context, id string, fn func(api.Result) error) (*api.JobStatus, error) {
	if err := c.Stream(ctx, id, fn); err != nil {
		return nil, err
	}
	st, err := c.Job(ctx, id)
	if err != nil {
		return nil, err
	}
	if st.State != api.StateDone {
		return nil, fmt.Errorf("client: job %s: completion stream ended while the job was %s", id, st.State)
	}
	return st, nil
}

// Stream consumes the job's NDJSON completion stream, calling fn for
// every per-simulation result in completion order. It returns when the
// stream ends (job done) or fn returns an error. The first Stream of a
// job whose submit reply carried its results replays them instead of
// sending a request.
func (c *Client) Stream(ctx context.Context, id string, fn func(api.Result) error) error {
	if rs, ok := c.take(id); ok {
		for _, r := range rs {
			if err := fn(r); err != nil {
				return err
			}
		}
		return nil
	}
	return getNDJSON(ctx, c, "/v1/jobs/"+id+"/stream", fn)
}

// keep records the results a submit reply for job id carried, dropping
// the oldest entry past replayJobs. A reply without results drops any
// entry of that id: job ids restart with the daemon, and a stale entry
// must not answer for a new job.
func (c *Client) keep(id string, rs []api.Result) {
	c.replayMu.Lock()
	defer c.replayMu.Unlock()
	c.replays = slices.DeleteFunc(c.replays, func(r replay) bool { return r.id == id })
	if len(rs) == 0 {
		return
	}
	if len(c.replays) == replayJobs {
		c.replays = slices.Delete(c.replays, 0, 1)
	}
	c.replays = append(c.replays, replay{id, rs})
}

// take removes and returns the kept results of job id, if any: each
// entry is used once.
func (c *Client) take(id string) ([]api.Result, bool) {
	c.replayMu.Lock()
	defer c.replayMu.Unlock()
	i := slices.IndexFunc(c.replays, func(r replay) bool { return r.id == id })
	if i < 0 {
		return nil, false
	}
	rs := c.replays[i].results
	c.replays = slices.Delete(c.replays, i, i+1)
	return rs, true
}

// getNDJSON reads the NDJSON response to GET path, decoding each line
// into a T and calling fn in arrival order. It returns nil when the
// server ends the stream, and fn's error as it is.
func getNDJSON[T any](ctx context.Context, c *Client, path string, fn func(T) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return fmt.Errorf("client: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("client: %s: %s: %s", path, resp.Status, apiError(resp))
	}
	// A line is one result or event: most fit in 4 KB, and the buffer
	// grows for a result carrying a full interval ring, up to 8 MB.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4<<10), 8<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var v T
		if err := json.Unmarshal(line, &v); err != nil {
			return fmt.Errorf("client: decoding %s record: %w", path, err)
		}
		if err := fn(v); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("client: %s: %w", path, err)
	}
	return nil
}

// Health checks /healthz; nil means the daemon is serving.
func (c *Client) Health(ctx context.Context) error {
	return c.getJSON(ctx, "/healthz", &map[string]string{})
}

// Ready checks /readyz; nil means the daemon is accepting new work
// (not draining, backend ready, admission queue not full).
func (c *Client) Ready(ctx context.Context) error {
	return c.getJSON(ctx, "/readyz", &map[string]interface{}{})
}

// Workers lists a fleet coordinator's workers (GET /fleet/v1/workers).
// Only coordinators serve this; a plain msrd daemon returns 404.
func (c *Client) Workers(ctx context.Context) ([]api.WorkerInfo, error) {
	var out api.WorkersResponse
	if err := c.getJSON(ctx, "/fleet/v1/workers", &out); err != nil {
		return nil, err
	}
	return out.Workers, nil
}

// RegisterWorker announces a worker daemon to a fleet coordinator
// (POST /fleet/v1/workers). The addr must be dialable from the
// coordinator; registration is idempotent, so workers re-announce
// themselves periodically to survive coordinator restarts.
func (c *Client) RegisterWorker(ctx context.Context, addr string) error {
	body, err := json.Marshal(api.RegisterWorkerRequest{Addr: addr})
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/fleet/v1/workers", strings.NewReader(string(body)))
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return fmt.Errorf("client: register: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("client: register: %s: %s", resp.Status, apiError(resp))
	}
	return nil
}

// Metrics fetches the raw Prometheus exposition text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/metrics", nil)
	if err != nil {
		return "", fmt.Errorf("client: %w", err)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return "", fmt.Errorf("client: metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("client: metrics: %s", resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("client: metrics: %w", err)
	}
	return string(b), nil
}

func (c *Client) getJSON(ctx context.Context, path string, out interface{}) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return fmt.Errorf("client: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("client: %s: %s: %s", path, resp.Status, apiError(resp))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding %s: %w", path, err)
	}
	return nil
}

// apiError extracts the server's JSON error body, falling back to the
// raw text.
func apiError(resp *http.Response) string {
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil || len(body) == 0 {
		return "(no body)"
	}
	var e api.Error
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(body))
}
