// Command msrtail is a headless subscriber for the live event bus: it
// reads an msrd daemon's or msrfleet coordinator's /v1/events stream,
// writes every event as one NDJSON line (deterministic bus encoding),
// and optionally asserts per-job lifecycle ordering — the harness
// scripts use it to capture and validate the event stream of a sweep
// without a browser.
//
// Usage:
//
//	msrtail -addr 127.0.0.1:8371                     # firehose to stdout
//	msrtail -addr 127.0.0.1:8370 -job f1             # one job only
//	msrtail -addr coord:8370 -out events.ndjson -assert-order -jobs 2
//
// With -jobs N it exits after N jobs finish; otherwise it runs until
// the stream closes or SIGINT/SIGTERM. With -assert-order it verifies
// every job's events arrive queued -> start -> done/failed and that
// hub sequence numbers are monotonic, exiting 1 on violation.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"mssr/internal/client"
	"mssr/internal/events"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8371", "daemon or coordinator address")
		job         = flag.String("job", "", "filter to one job id (empty = firehose)")
		out         = flag.String("out", "", "write NDJSON here (empty = stdout)")
		assertOrder = flag.Bool("assert-order", false, "verify queued -> start -> done per job and monotonic seq")
		jobLimit    = flag.Int("jobs", 0, "exit after this many jobs finish (0 = run until the stream closes)")
		timeout     = flag.Duration("timeout", 0, "overall deadline (0 = none)")
	)
	flag.Parse()

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "msrtail:", err)
			os.Exit(2)
		}
		defer f.Close()
		w = f
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if *timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cancel()
	}()

	// Lifecycle stages per job, for -assert-order: queued(1) ->
	// started(2) -> finished(3). Telemetry frames (interval, window,
	// spec_*) do not advance the stage.
	const (
		stQueued   = 1
		stStarted  = 2
		stFinished = 3
	)
	stage := make(map[string]int)
	var violations []string
	var lastSeq uint64
	finished := 0

	cl := client.New(*addr)
	var buf []byte
	err := cl.Events(ctx, *job, func(ev events.Event) error {
		buf = ev.AppendJSON(buf[:0])
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
		if *assertOrder {
			if ev.Seq <= lastSeq {
				violations = append(violations, fmt.Sprintf("seq %d after %d (type %s)", ev.Seq, lastSeq, ev.Type))
			}
			lastSeq = ev.Seq
			switch ev.Type {
			case events.TypeJobQueued:
				if stage[ev.Job] != 0 {
					violations = append(violations, fmt.Sprintf("job %s queued twice", ev.Job))
				}
				stage[ev.Job] = stQueued
			case events.TypeJobStart:
				if stage[ev.Job] != stQueued {
					violations = append(violations, fmt.Sprintf("job %s started from stage %d", ev.Job, stage[ev.Job]))
				}
				stage[ev.Job] = stStarted
			case events.TypeJobDone, events.TypeJobFailed:
				if stage[ev.Job] != stStarted {
					violations = append(violations, fmt.Sprintf("job %s finished from stage %d", ev.Job, stage[ev.Job]))
				}
				stage[ev.Job] = stFinished
			}
		}
		if ev.Type == events.TypeJobDone || ev.Type == events.TypeJobFailed {
			finished++
			if *jobLimit > 0 && finished >= *jobLimit {
				return client.ErrStopEvents
			}
		}
		return nil
	})
	// Cancellation (signal or deadline after capturing what we wanted) is
	// a normal way to stop tailing, not a failure.
	if err != nil && ctx.Err() == nil {
		fmt.Fprintln(os.Stderr, "msrtail:", err)
		os.Exit(2)
	}
	if ctx.Err() == context.DeadlineExceeded && *jobLimit > 0 && finished < *jobLimit {
		fmt.Fprintf(os.Stderr, "msrtail: deadline hit with %d/%d jobs finished\n", finished, *jobLimit)
		os.Exit(2)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "msrtail: order violation:", v)
		}
		os.Exit(1)
	}
	if *assertOrder {
		fmt.Fprintf(os.Stderr, "msrtail: order ok (%d jobs finished, seq through %d)\n", finished, lastSeq)
	}
}
