package client

import (
	"context"
	"errors"
	"fmt"

	"mssr/internal/api"
	"mssr/internal/sim"
)

// Remote executes spec batches on an msrd daemon, implementing
// sim.Backend. The experiment drivers run against it unchanged: results
// come back positionally, the returned error joins every failed job
// wrapped with its key (mirroring sim.Runner), and an Observer, when
// set, is fed from the daemon's NDJSON completion stream so -progress
// and -json work remotely.
//
// Remote is the consumer the daemon's content-addressed cache was built
// for: repeated sweeps (regenerating a table twice, re-rendering a
// figure after a doc change) resolve to the same canonical keys and are
// served from cache instead of re-simulating.
type Remote struct {
	// Client is the daemon connection (required).
	Client *Client
	// Observer, when set, receives a notification per completed
	// simulation, in the daemon's completion order.
	Observer sim.Observer
}

// Run implements sim.Backend.
func (r *Remote) Run(ctx context.Context, specs []sim.Spec) ([]sim.Result, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	// Mirror the local Runner's contract: validate everything up front
	// and run nothing if any spec is invalid or not remotable.
	var verrs []error
	wire := make([]api.Spec, len(specs))
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			verrs = append(verrs, err)
			continue
		}
		ws, err := api.FromSim(specs[i])
		if err != nil {
			verrs = append(verrs, err)
			continue
		}
		wire[i] = ws
	}
	if len(verrs) > 0 {
		return nil, errors.Join(verrs...)
	}

	sub, err := r.Client.Submit(ctx, wire)
	if err != nil {
		return nil, err
	}

	// The stream carries every result (the daemon ends it exactly when
	// the job is done), so it alone fills the positional results: a job
	// answered from cache costs the submission alone.
	results := make([]sim.Result, len(specs))
	seen := make([]bool, len(specs))
	got := 0
	err = r.Client.Stream(ctx, sub.JobID, func(e api.Result) error {
		if e.Index < 0 || e.Index >= len(specs) || seen[e.Index] {
			return fmt.Errorf("client: job %s streamed spec index %d twice or out of range [0, %d)", sub.JobID, e.Index, len(specs))
		}
		seen[e.Index] = true
		got++
		sr := e.Sim()
		if r.Observer != nil {
			r.Observer.OnStart(e.Index, len(specs), e.Key)
			r.Observer.OnFinish(e.Index, len(specs), sr)
		}
		sr.Spec = specs[e.Index]
		results[e.Index] = sr
		return nil
	})
	if err != nil {
		return nil, err
	}
	if got != len(specs) {
		return nil, fmt.Errorf("client: job %s: completion stream ended after %d of %d results", sub.JobID, got, len(specs))
	}
	var errs []error
	for i := range results {
		if err := results[i].Err; err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", results[i].Key, err))
		}
	}
	return results, errors.Join(errs...)
}
