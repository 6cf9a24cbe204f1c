package server

import (
	"mssr/internal/api"
	"mssr/internal/obs"
	"mssr/internal/sim"
)

// Backend is the server's execution seam: every leader simulation the
// cache, the store and in-flight dedup could not answer runs through it.
// The default builds an in-process sim.Runner per job; the fleet
// coordinator plugs in its worker ring.
type Backend interface {
	// Job returns the executor for one job's leader specs, wired to that
	// job's hooks. Every leader that finishes before Run returns must be
	// settled through Observer.OnFinish or Resolve: that settles the
	// spec's flight, caches the result and streams it.
	Job(h JobHooks) sim.Backend
	// Ready reports why the backend cannot take new work (nil = ready).
	// While it is non-nil the server sheds submissions its cache cannot
	// answer with 503, and /readyz reports the error as its status.
	Ready() error
}

// JobHooks are the per-job callbacks the server hands its backend — the
// same ones a sim.Runner takes, plus the job's id for events a backend
// publishes on the server's hub itself, and Resolve for results a
// backend already holds in wire form.
type JobHooks struct {
	Job      string
	Observer sim.Observer
	// Resolve settles leader index with a wire result, keeping its
	// Source: a fleet worker may have answered the spec from its own
	// cache or store, which the server then neither counts as a
	// simulation nor reports as one. Observer.OnFinish settles a leader
	// the backend ran itself.
	Resolve    func(index int, r api.Result)
	OnInterval func(index int, key string, iv obs.Interval)
	OnWindow   func(index int, key string, window, windows int)
}

// runners is the default Backend: a fresh sim.Runner per job, built
// from the daemon's config, every one sharing its checkpoint store.
type runners Config

func (c runners) Job(h JobHooks) sim.Backend {
	return &sim.Runner{
		Jobs:        c.SimJobs,
		Timeout:     c.DefaultTimeout,
		Batching:    c.Batch,
		Checkpoints: c.Checkpoints,
		Observer:    h.Observer,
		OnInterval:  h.OnInterval,
		OnWindow:    h.OnWindow,
	}
}

func (runners) Ready() error { return nil }
