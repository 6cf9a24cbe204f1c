package server

import (
	"sync"
	"time"

	"mssr/internal/api"
	"mssr/internal/sim"
)

// job is one submitted batch of specs moving through the daemon:
// queued -> running -> done. Results are recorded positionally (submit
// order) and additionally published in completion order to any NDJSON
// stream subscribers.
type job struct {
	id    string
	specs []sim.Spec

	mu        sync.Mutex
	state     string
	submitted time.Time
	started   time.Time
	finished  time.Time
	// results is positional (one slot per spec); filled marks which
	// slots hold a completed result.
	results []api.Result
	filled  []bool
	done    int
	// events is the completion-order log the stream endpoint replays.
	events     []api.Result
	cacheHits  int
	dedupJoins int
	err        error
	// notify is closed and replaced on every publication; stream
	// subscribers wait on it to pick up new events.
	notify chan struct{}
}

func newJob(id string, specs []sim.Spec, now time.Time) *job {
	return &job{
		id:        id,
		specs:     specs,
		state:     api.StateQueued,
		submitted: now,
		results:   make([]api.Result, len(specs)),
		filled:    make([]bool, len(specs)),
		notify:    make(chan struct{}),
	}
}

// start marks the job running.
func (j *job) start(now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = api.StateRunning
	j.started = now
}

// complete records the result for spec index i and publishes it to the
// stream subscribers, then calls announce with the new done count while
// still holding the job lock. A slot completes at most once: the flight
// observer and the post-run sweep may both attempt it, the second
// attempt is a no-op.
func (j *job) complete(i int, r api.Result, announce func(done int)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.filled[i] {
		return
	}
	j.filled[i] = true
	j.results[i] = r
	j.done++
	switch r.Source {
	case api.SourceCache, api.SourceStore:
		// Both tiers served the spec without running a simulation; the
		// wire JobStatus counts them together as cache hits.
		j.cacheHits++
	case api.SourceDedup:
		j.dedupJoins++
	}
	j.events = append(j.events, r)
	close(j.notify)
	j.notify = make(chan struct{})
	announce(j.done)
}

// finish marks the job done with an optional job-level error.
func (j *job) finish(now time.Time, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = api.StateDone
	j.finished = now
	j.err = err
	close(j.notify)
	j.notify = make(chan struct{})
}

// failed reports whether any recorded result carries an error.
func (j *job) failed() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return true
	}
	for i := range j.results {
		if j.filled[i] && j.results[i].Error != "" {
			return true
		}
	}
	return false
}

// status snapshots the job as a wire JobStatus. Results are attached
// only once the job is done, so pollers never see a half-filled
// positional slice.
func (j *job) status() api.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := api.JobStatus{
		ID:         j.id,
		State:      j.state,
		Total:      len(j.specs),
		Done:       j.done,
		CacheHits:  j.cacheHits,
		DedupJoins: j.dedupJoins,
		Submitted:  j.submitted,
		Started:    j.started,
		Finished:   j.finished,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.state == api.StateDone {
		st.Results = append([]api.Result(nil), j.results...)
	}
	return st
}

// completions returns a copy of the completion-order log: what the
// stream endpoint yields for a job that is done.
func (j *job) completions() []api.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]api.Result(nil), j.events...)
}

// next returns the completion-order event at position i, blocking
// until it exists, the job finishes, or cancel is closed. The second
// return is false when no more events will come.
func (j *job) next(i int, cancel <-chan struct{}) (api.Result, bool) {
	for {
		j.mu.Lock()
		if i < len(j.events) {
			e := j.events[i]
			j.mu.Unlock()
			return e, true
		}
		done, ch := j.state == api.StateDone, j.notify
		j.mu.Unlock()
		if done {
			return api.Result{}, false
		}
		select {
		case <-ch:
		case <-cancel:
			return api.Result{}, false
		}
	}
}
