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

	st, err := r.Client.follow(ctx, sub.JobID, func(e api.Result) error {
		if r.Observer != nil {
			r.Observer.OnStart(e.Index, len(specs), e.Key)
			r.Observer.OnFinish(e.Index, len(specs), e.Sim())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(st.Results) != len(specs) {
		return nil, fmt.Errorf("client: daemon returned %d results for %d specs (job %s, error %q)",
			len(st.Results), len(specs), sub.JobID, st.Error)
	}
	results := make([]sim.Result, len(specs))
	var errs []error
	for i, e := range st.Results {
		sr := e.Sim()
		sr.Index = i
		sr.Spec = specs[i]
		results[i] = sr
		if sr.Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", sr.Key, sr.Err))
		}
	}
	if st.Error != "" {
		errs = append(errs, fmt.Errorf("job %s: %s", sub.JobID, st.Error))
	}
	return results, errors.Join(errs...)
}
